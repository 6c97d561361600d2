#include "mesh/phy/radio.hpp"

#include <algorithm>

#include "mesh/common/log.hpp"
#include "mesh/phy/channel.hpp"
#include "mesh/trace/trace_collector.hpp"

namespace mesh::phy {

Radio::Radio(sim::Simulator& simulator, net::NodeId node, PhyParams params)
    : simulator_{simulator}, node_{node}, params_{params} {}

bool Radio::mediumBusy() const {
  if (failed_) return false;  // powered off: senses nothing
  if (isTransmitting() || lockedActive_) return true;
  return totalInbandPowerW() >= params_.csThresholdW;
}

void Radio::setFailed(bool failed) {
  if (failed == failed_) return;
  if (failed && lockedActive_) {
    // The reception in progress dies with the radio.
    lockedActive_ = false;
    lockedCorrupted_ = false;
    ++stats_.framesLostFailed;
    if (trace_ != nullptr) {
      const auto it = std::find_if(
          arrivals_.begin(), arrivals_.end(),
          [this](const Arrival& a) { return a.key == lockedKey_; });
      if (it != arrivals_.end()) {
        traceDrop(it->frame, trace::DropReason::FaultNodeDown);
      }
    }
  }
  failed_ = failed;
  // An in-flight own transmission is not truncated: its energy is already
  // scheduled at every receiver. Crash granularity is one frame.
  // The channel's cached receiver sets mention this radio; tell it so the
  // affected rows are rebuilt before the next transmission. Self-reporting
  // here (rather than in the fault injector) keeps the cache correct for
  // every setFailed caller.
  if (channel_ != nullptr) channel_->invalidateRadio(node_);
  notifyMediumIfChanged();
}

void Radio::injectNoise(double powerW, SimTime duration) {
  MESH_REQUIRE(powerW > 0.0 && duration > SimTime::zero());
  const std::uint64_t key = ++nextArrivalKey_;
  arrivals_.push_back(Arrival{key, nullptr, net::kInvalidNode, powerW});
  inbandPowerW_ += powerW;
  ++stats_.noiseBursts;
  simulator_.schedule(duration, [this, key] { endArrival(key); });
  if (lockedActive_) reevaluateLockedSinr();
  notifyMediumIfChanged();
}

// Exact re-sum in vector order; called whenever an arrival is removed so
// the running total never accumulates cancellation error (subtracting the
// departed term would drift bitwise from the naive left fold).
void Radio::resumInbandPower() {
  double sum = 0.0;
  for (const auto& a : arrivals_) sum += a.rxPowerW;
  inbandPowerW_ = sum;
}

double Radio::interferenceFor(std::uint64_t excludedKey) const {
  double sum = 0.0;
  for (const auto& a : arrivals_) {
    if (a.key != excludedKey) sum += a.rxPowerW;
  }
  return sum;
}

void Radio::traceDrop(const PhyFramePtr& frame, trace::DropReason reason) {
  trace_->drop(simulator_.now(), node_, frame->payload.get(),
               frame->payload != nullptr ? frame->payload->kind()
                                         : net::PacketKind::MacControl,
               static_cast<std::uint32_t>(frame->sizeBytes()), reason);
}

void Radio::transmit(const PhyFramePtr& frame, SimTime airtime) {
  MESH_REQUIRE(channel_ != nullptr);
  MESH_REQUIRE(!isTransmitting());
  if (failed_) {
    // Crashed node: the MAC's state machine keeps running, but nothing
    // reaches the air.
    ++stats_.framesLostFailed;
    if (trace_ != nullptr) traceDrop(frame, trace::DropReason::FaultNodeDown);
    return;
  }
  // Transmission preempts any in-progress reception: the locked frame is
  // lost (half-duplex). The MAC avoids this by deferring, but a JOIN REPLY
  // scheduled with zero jitter can race a reception; model the loss rather
  // than forbid it.
  if (lockedActive_) {
    lockedActive_ = false;
    lockedCorrupted_ = false;
    ++stats_.framesMissedBusy;
    if (trace_ != nullptr) {
      const auto it = std::find_if(
          arrivals_.begin(), arrivals_.end(),
          [this](const Arrival& a) { return a.key == lockedKey_; });
      if (it != arrivals_.end()) {
        traceDrop(it->frame, trace::DropReason::PhyRadioBusy);
      }
    }
  }
  txUntil_ = simulator_.now() + airtime;
  txFrame_ = frame;
  ++stats_.framesSent;
  stats_.bytesSent += frame->sizeBytes();
  stats_.airtimeTx += airtime;
  if (trace_ != nullptr) {
    trace_->txStart(simulator_.now(), node_, frame->payload.get(),
                    static_cast<std::uint32_t>(frame->sizeBytes()),
                    frame->tx.code);
  }
  simulator_.schedule(airtime, [this] { endTransmit(); });
  channel_->transmit(*this, frame, airtime);
  notifyMediumIfChanged();
}

void Radio::endTransmit() {
  // txUntil_ reached; medium may have gone idle.
  if (trace_ != nullptr && txFrame_ != nullptr && !isTransmitting()) {
    trace_->txEnd(simulator_.now(), node_, txFrame_->payload.get(),
                  static_cast<std::uint32_t>(txFrame_->sizeBytes()));
  }
  if (!isTransmitting()) txFrame_ = nullptr;
  notifyMediumIfChanged();
}

Radio::EndTicket Radio::beginArrival(const PhyFramePtr& frame,
                                     net::NodeId transmitter, double rxPowerW,
                                     bool perCorrupted) {
  if (failed_) {
    // Powered off: the energy never enters the receive chain (and never
    // counts for carrier sense), so recovery starts from a clean radio.
    ++stats_.framesLostFailed;
    if (trace_ != nullptr) traceDrop(frame, trace::DropReason::FaultNodeDown);
    return {};
  }
  const std::uint64_t key = ++nextArrivalKey_;
  arrivals_.push_back(Arrival{key, frame, transmitter, rxPowerW, perCorrupted});
  // Appending extends the left-fold sum by one term: still bit-exact.
  inbandPowerW_ += rxPowerW;
  // The end's place in the event order is taken here, before the lock
  // logic and the medium callback below can schedule anything.
  const EndTicket ticket{key, simulator_.reserveOrder()};

  const bool decodable = rxPowerW >= params_.rxThresholdW;
  if (decodable && !isTransmitting() && !lockedActive_) {
    // Lock onto this frame.
    lockedActive_ = true;
    lockedKey_ = key;
    lockedCorrupted_ = false;
    reevaluateLockedSinr();
  } else if (decodable) {
    // Strong enough to decode, but the radio is occupied.
    ++stats_.framesMissedBusy;
    if (trace_ != nullptr) traceDrop(frame, trace::DropReason::PhyRadioBusy);
    if (lockedActive_) reevaluateLockedSinr();
  } else {
    ++stats_.framesBelowThreshold;
    if (trace_ != nullptr) {
      traceDrop(frame, trace::DropReason::PhyBelowSensitivity);
    }
    if (lockedActive_) reevaluateLockedSinr();
  }
  notifyMediumIfChanged();
  return ticket;
}

void Radio::endArrival(std::uint64_t key) {
  const auto it = std::find_if(arrivals_.begin(), arrivals_.end(),
                               [key](const Arrival& a) { return a.key == key; });
  MESH_ASSERT(it != arrivals_.end());
  const Arrival arrival = std::move(*it);
  arrivals_.erase(it);
  resumInbandPower();

  if (lockedActive_ && lockedKey_ == key) {
    lockedActive_ = false;
    if (lockedCorrupted_) {
      ++stats_.framesCorrupted;
      if (trace_ != nullptr) {
        traceDrop(arrival.frame, trace::DropReason::PhyCollision);
      }
    } else if (arrival.perCorrupted) {
      // The channel's SNR→PER model failed this frame at its chosen rate.
      ++stats_.framesRateCorrupted;
      if (trace_ != nullptr) {
        traceDrop(arrival.frame, trace::DropReason::PhyRateDecode);
      }
    } else {
      ++stats_.framesDelivered;
      stats_.bytesDelivered += arrival.frame->sizeBytes();
      if (rxCallback_) {
        RxInfo info;
        info.transmitter = arrival.transmitter;
        info.rxPowerW = arrival.rxPowerW;
        const double denom = params_.noiseFloorW + interferenceFor(key);
        info.sinr = arrival.rxPowerW / denom;
        rxCallback_(arrival.frame, info);
      }
    }
    lockedCorrupted_ = false;
  } else if (lockedActive_) {
    // Some other signal ended; the locked frame's SINR just improved, but
    // corruption is latched, so only re-evaluate for logging symmetry.
    reevaluateLockedSinr();
  }
  notifyMediumIfChanged();
}

void Radio::reevaluateLockedSinr() {
  MESH_ASSERT(lockedActive_);
  if (lockedCorrupted_) return;
  const auto it = std::find_if(arrivals_.begin(), arrivals_.end(),
                               [this](const Arrival& a) { return a.key == lockedKey_; });
  MESH_ASSERT(it != arrivals_.end());
  const double sinr =
      it->rxPowerW / (params_.noiseFloorW + interferenceFor(lockedKey_));
  if (sinr < params_.sinrCaptureThreshold) {
    lockedCorrupted_ = true;
    MESH_TRACE("phy", "node %u: locked frame corrupted (sinr=%.2f)", node_, sinr);
  }
}

void Radio::notifyMediumIfChanged() {
  const bool busy = mediumBusy();
  if (busy != lastReportedBusy_) {
    if (busy) {
      busySince_ = simulator_.now();
    } else {
      busyAccum_ += simulator_.now() - busySince_;
    }
    lastReportedBusy_ = busy;
    if (mediumCallback_) mediumCallback_(busy);
  }
}

}  // namespace mesh::phy
