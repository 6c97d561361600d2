#pragma once
// Radio: one node's half-duplex transceiver.
//
// The radio tracks every signal arriving at it (not only decodable ones):
// their summed power drives both carrier sense and the SINR of the frame
// the radio has locked onto. Reception rules follow Glomosim/ns-2:
//
//  * A frame "locks" the receiver if the radio is idle (not transmitting,
//    not already locked) and its power is >= rxThreshold.
//  * While a frame is locked, the SINR locked/(noise + Σ other signals) is
//    re-evaluated whenever any signal starts or ends; if it ever drops
//    below the capture threshold, the frame is marked corrupted (latched)
//    — this is how collisions and hidden terminals destroy broadcast
//    frames, which have no RTS/CTS protection or retransmission.
//  * A frame arriving while the radio is transmitting is never decoded
//    (half-duplex) but its energy still counts for carrier sense.
//
// The MAC observes the medium through mediumBusy() plus a busy/idle edge
// callback, and receives successfully decoded frames via the rx callback.

#include <cstdint>
#include <functional>
#include <vector>

#include "mesh/common/simtime.hpp"
#include "mesh/net/addr.hpp"
#include "mesh/net/packet.hpp"
#include "mesh/phy/frame.hpp"
#include "mesh/phy/phy_params.hpp"
#include "mesh/sim/simulator.hpp"
#include "mesh/trace/trace_event.hpp"

namespace mesh::trace {
class TraceCollector;
}

namespace mesh::phy {

class Channel;

// Delivered to the MAC together with a successfully received frame.
struct RxInfo {
  net::NodeId transmitter{net::kInvalidNode};
  double rxPowerW{0.0};
  double sinr{0.0};  // SINR at end of reception
};

struct RadioStats {
  std::uint64_t framesSent{0};
  std::uint64_t framesDelivered{0};      // decoded and handed to MAC
  std::uint64_t framesCorrupted{0};      // locked but SINR dipped (collision)
  std::uint64_t framesRateCorrupted{0};  // locked but lost to per-rate PER
  std::uint64_t framesBelowThreshold{0}; // energy sensed, never decodable
  std::uint64_t framesMissedBusy{0};     // arrived while radio Tx/Rx-locked
  std::uint64_t framesLostFailed{0};     // tx/rx swallowed while setFailed(true)
  std::uint64_t noiseBursts{0};          // injectNoise() calls (fault subsystem)
  std::uint64_t bytesSent{0};
  std::uint64_t bytesDelivered{0};
  SimTime airtimeTx{SimTime::zero()};
};

class Radio {
 public:
  using RxCallback = std::function<void(const PhyFramePtr&, const RxInfo&)>;
  using MediumCallback = std::function<void(bool busy)>;

  Radio(sim::Simulator& simulator, net::NodeId node, PhyParams params);

  Radio(const Radio&) = delete;
  Radio& operator=(const Radio&) = delete;

  net::NodeId nodeId() const { return node_; }
  const PhyParams& params() const { return params_; }

  void setReceiveCallback(RxCallback cb) { rxCallback_ = std::move(cb); }
  void setMediumCallback(MediumCallback cb) { mediumCallback_ = std::move(cb); }

  // --- MAC-facing ---------------------------------------------------------

  // Start transmitting; the caller (MAC) has already done carrier sensing
  // and computed the airtime. Transmitting while busy is a programming
  // error in the MAC, not a channel condition.
  void transmit(const PhyFramePtr& frame, SimTime airtime);

  bool isTransmitting() const { return txUntil_ > simulator_.now(); }
  bool isLocked() const { return lockedActive_; }

  // --- fault injection (mesh/fault) ---------------------------------------

  // Powers the radio off/on. While failed the radio neither radiates
  // (transmit() swallows the frame with a FaultNodeDown drop) nor hears
  // (beginArrival ignores incoming energy). A reception in progress at the
  // failure instant is lost. In-flight arrivals drain on their own
  // schedule, so recovery never observes stale state. The caller (the
  // FaultInjector) is responsible for invalidating the channel's
  // reachability cache so the topology change is visible there too.
  void setFailed(bool failed);
  bool failed() const { return failed_; }

  // Adds `powerW` of undecodable in-band energy for `duration`: it raises
  // carrier sense and degrades the SINR of any locked frame, exactly like
  // a co-channel interferer, but can never lock the receiver. Models the
  // fault subsystem's interference bursts.
  void injectNoise(double powerW, SimTime duration);
  // Carrier sense: physically busy (tx/rx) or total in-band energy above
  // the CS threshold. (NAV-based virtual carrier sense lives in the MAC.)
  bool mediumBusy() const;

  const RadioStats& stats() const { return stats_; }

  // Observability: TxStart/TxEnd plus Drop{collision, below-sensitivity,
  // radio-busy} records. Null (the default) disables the hooks; each hook
  // site is a single test of this cached pointer.
  void setTrace(trace::TraceCollector* collector) { trace_ = collector; }

  // Cumulative time the medium has read busy at this radio (tx, rx-locked,
  // or energy above carrier sense). Drives the adaptive probing controller.
  SimTime busyTime() const {
    SimTime total = busyAccum_;
    if (lastReportedBusy_) total += simulator_.now() - busySince_;
    return total;
  }

  // --- Channel-facing -----------------------------------------------------

  // `index` is this radio's position in the channel's attach order; the
  // channel passes it back so transmit() resolves the sender row of the
  // reachability cache in O(1) instead of a linear scan.
  void attachChannel(Channel* channel, std::size_t index) {
    channel_ = channel;
    channelIndex_ = index;
  }
  std::size_t channelIndex() const { return channelIndex_; }

  // What beginArrival hands back instead of scheduling the arrival's end
  // (DESIGN §8.3): the arrival's key for endArrival, and the event seq the
  // end takes — reserved at the point where the radio once scheduled it,
  // so the channel can run the end exactly where that event would have
  // popped. key 0: the radio took no arrival (it is failed); no end runs.
  struct EndTicket {
    std::uint64_t key{0};
    std::uint64_t seq{0};
  };

  // Called by the channel at the instant the first energy of a frame
  // reaches this radio. The channel owes the returned ticket one
  // endArrival(ticket.key) call, one airtime later, at ticket.seq.
  // `perCorrupted` marks a frame the channel's per-rate error model already
  // killed: its energy behaves normally (carrier sense, interference, it
  // still locks the receiver) but the decode fails at the end.
  EndTicket beginArrival(const PhyFramePtr& frame, net::NodeId transmitter,
                         double rxPowerW, bool perCorrupted = false);
  // The last energy of arrival `key` leaves the radio: the locked frame
  // (if it was this one) is decoded or dropped, carrier sense updates.
  void endArrival(std::uint64_t key);

 private:
  // `frame` is null for injected noise bursts, which carry energy but can
  // never be locked onto or decoded.
  struct Arrival {
    std::uint64_t key;
    PhyFramePtr frame;
    net::NodeId transmitter;
    double rxPowerW;
    bool perCorrupted{false};
  };

  void endTransmit();
  void traceDrop(const PhyFramePtr& frame, trace::DropReason reason);

  double interferenceFor(std::uint64_t excludedKey) const;
  // O(1): the maintained running sum (see inbandPowerW_ below).
  double totalInbandPowerW() const { return inbandPowerW_; }
  void resumInbandPower();
  void reevaluateLockedSinr();
  void notifyMediumIfChanged();

  sim::Simulator& simulator_;
  net::NodeId node_;
  PhyParams params_;
  Channel* channel_{nullptr};
  std::size_t channelIndex_{0};  // row in the channel's reachability cache

  RxCallback rxCallback_;
  MediumCallback mediumCallback_;

  std::vector<Arrival> arrivals_;
  std::uint64_t nextArrivalKey_{0};

  // Running total of arriving signal power, kept exactly equal (bitwise)
  // to a fresh left-to-right sum over arrivals_: appends accumulate
  // incrementally (which IS the left fold extended by one term) and every
  // removal triggers an exact re-sum in resumInbandPower(). Carrier-sense
  // queries become O(1) with no FP drift relative to the naive loop.
  double inbandPowerW_{0.0};

  bool lockedActive_{false};
  std::uint64_t lockedKey_{0};
  bool lockedCorrupted_{false};
  bool failed_{false};  // fault injection: radio powered off

  SimTime txUntil_{SimTime::zero()};
  PhyFramePtr txFrame_;  // in-flight own frame, for the TxEnd record

  trace::TraceCollector* trace_{nullptr};

  bool lastReportedBusy_{false};
  SimTime busySince_{SimTime::zero()};
  SimTime busyAccum_{SimTime::zero()};
  RadioStats stats_;
};

}  // namespace mesh::phy
