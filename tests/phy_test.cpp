// Unit tests for the PHY: propagation models, fading, radio + channel
// reception/interference behaviour.

#include <gtest/gtest.h>

#include <memory>

#include "mesh/common/rng.hpp"
#include "mesh/common/stats.hpp"
#include "mesh/phy/channel.hpp"
#include "mesh/phy/fading.hpp"
#include "mesh/phy/frame.hpp"
#include "mesh/phy/link_model.hpp"
#include "mesh/phy/propagation.hpp"
#include "mesh/phy/radio.hpp"
#include "mesh/phy/static_link_model.hpp"
#include "mesh/sim/simulator.hpp"

namespace mesh::phy {
namespace {

using namespace mesh::time_literals;

PhyParams defaultParams() { return PhyParams{}; }

// ------------------------------------------------------------ propagation

TEST(Propagation, TwoRayBelowCrossoverMatchesFriis) {
  const PhyParams p = defaultParams();
  const double lambda = p.wavelengthM();
  const double d = 50.0;  // below the ~86 m crossover
  const double expected =
      p.txPowerW * lambda * lambda / (16.0 * 9.869604401089358 * d * d);
  TwoRayGroundModel model;
  EXPECT_NEAR(model.rxPowerW(p, {0, 0}, {d, 0}), expected, expected * 1e-9);
}

TEST(Propagation, TwoRayInverseSquareBelowCrossover) {
  const PhyParams p = defaultParams();
  const double p40 = TwoRayGroundModel::atDistance(p, 40.0);
  const double p80 = TwoRayGroundModel::atDistance(p, 80.0);
  EXPECT_NEAR(p40 / p80, 4.0, 1e-9);
}

TEST(Propagation, TwoRayCrossoverIsContinuous) {
  const PhyParams p = defaultParams();
  const double dc = TwoRayGroundModel::crossoverDistanceM(p);
  EXPECT_GT(dc, 50.0);
  EXPECT_LT(dc, 120.0);  // ~86 m for 914 MHz, h=1.5 m
  const double below = TwoRayGroundModel::atDistance(p, dc * 0.9999);
  const double above = TwoRayGroundModel::atDistance(p, dc * 1.0001);
  EXPECT_NEAR(below / above, 1.0, 0.01);
}

TEST(Propagation, TwoRayInverseFourthBeyondCrossover) {
  const PhyParams p = defaultParams();
  const double p200 = TwoRayGroundModel::atDistance(p, 200.0);
  const double p400 = TwoRayGroundModel::atDistance(p, 400.0);
  EXPECT_NEAR(p200 / p400, 16.0, 1e-6);
}

TEST(Propagation, WaveLanConstantsGive250mRange) {
  // The classic ns-2/Glomosim calibration: mean power at 250 m equals the
  // reception threshold, at 550 m the carrier-sense threshold.
  const PhyParams p = defaultParams();
  EXPECT_NEAR(TwoRayGroundModel::atDistance(p, 250.0) / p.rxThresholdW, 1.0, 0.02);
  EXPECT_NEAR(TwoRayGroundModel::atDistance(p, 550.0) / p.csThresholdW, 1.0, 0.02);
}

TEST(Propagation, ZeroDistanceIsFinite) {
  const PhyParams p = defaultParams();
  EXPECT_TRUE(std::isfinite(TwoRayGroundModel::atDistance(p, 0.0)));
}

// ----------------------------------------------------------------- fading

TEST(Fading, NoFadingIsUnity) {
  Rng rng{1};
  NoFading f;
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(f.powerGain(rng), 1.0);
}

TEST(Fading, RayleighUnitMeanAndTailProbability) {
  Rng rng{2};
  RayleighFading f;
  OnlineStats s;
  int above1 = 0;
  constexpr int kN = 200'000;
  for (int i = 0; i < kN; ++i) {
    const double g = f.powerGain(rng);
    s.add(g);
    above1 += (g >= 1.0);
  }
  EXPECT_NEAR(s.mean(), 1.0, 0.02);
  EXPECT_NEAR(static_cast<double>(above1) / kN, std::exp(-1.0), 0.01);
}

TEST(Fading, RayleighSuccessProbabilityClosedForm) {
  EXPECT_NEAR(RayleighFading::successProbability(1.0), std::exp(-1.0), 1e-12);
  // Strong link (margin 39x, ~100 m in the two-ray regime): ~97.5%.
  EXPECT_GT(RayleighFading::successProbability(39.0), 0.97);
  // Weak link (margin 0.5): very lossy.
  EXPECT_LT(RayleighFading::successProbability(0.5), 0.2);
}

// --------------------------------------------------- radio + channel rig

struct Rig {
  sim::Simulator simulator;
  std::unique_ptr<Channel> channel;
  std::vector<std::unique_ptr<Radio>> radios;

  // Builds a geometric rig with the given positions.
  explicit Rig(std::vector<Vec2> positions, bool rayleigh = false,
               std::uint64_t seed = 99) {
    PhyParams params;
    std::unique_ptr<FadingModel> fading;
    if (rayleigh) {
      fading = std::make_unique<RayleighFading>();
    } else {
      fading = std::make_unique<NoFading>();
    }
    auto model = std::make_unique<GeometricLinkModel>(
        params, positions, std::make_unique<TwoRayGroundModel>(),
        std::move(fading));
    channel = std::make_unique<Channel>(simulator, std::move(model),
                                        Rng{seed}.fork("channel"));
    for (std::size_t i = 0; i < positions.size(); ++i) {
      radios.push_back(std::make_unique<Radio>(
          simulator, static_cast<net::NodeId>(i), params));
      channel->attach(*radios.back());
    }
  }

  // Builds a rig over an explicit link model.
  Rig(std::unique_ptr<LinkModel> model, std::size_t n, std::uint64_t seed = 99) {
    PhyParams params;
    channel = std::make_unique<Channel>(simulator, std::move(model),
                                        Rng{seed}.fork("channel"));
    for (std::size_t i = 0; i < n; ++i) {
      radios.push_back(std::make_unique<Radio>(
          simulator, static_cast<net::NodeId>(i), params));
      channel->attach(*radios.back());
    }
  }

  PhyFramePtr frame(std::size_t bytes = 100) {
    return makeFrame(std::vector<std::uint8_t>(bytes, 0xAB), nullptr);
  }

  SimTime airtime(std::size_t bytes = 100) {
    return radios[0]->params().frameAirtime(bytes);
  }
};

TEST(Radio, DeliversFrameWithinRange) {
  Rig rig{{{0, 0}, {100, 0}}};
  int delivered = 0;
  rig.radios[1]->setReceiveCallback(
      [&](const PhyFramePtr& f, const RxInfo& info) {
        ++delivered;
        EXPECT_EQ(f->sizeBytes(), 100u);
        EXPECT_EQ(info.transmitter, 0);
        EXPECT_GT(info.sinr, 10.0);
      });
  rig.radios[0]->transmit(rig.frame(), rig.airtime());
  rig.simulator.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(rig.radios[1]->stats().framesDelivered, 1u);
}

TEST(Radio, NoDeliveryBeyondReceptionRange) {
  // 400 m: above CS significance is possible but below RX threshold.
  Rig rig{{{0, 0}, {400, 0}}};
  int delivered = 0;
  rig.radios[1]->setReceiveCallback(
      [&](const PhyFramePtr&, const RxInfo&) { ++delivered; });
  rig.radios[0]->transmit(rig.frame(), rig.airtime());
  rig.simulator.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(rig.radios[1]->stats().framesBelowThreshold, 1u);
}

TEST(Radio, CarrierSenseWithoutDelivery) {
  // At 400 m (between 250 m RX and 550 m CS range) the medium must read
  // busy during the frame even though nothing is decodable.
  Rig rig{{{0, 0}, {400, 0}}};
  bool sensedBusy = false;
  rig.radios[1]->setMediumCallback([&](bool busy) { sensedBusy |= busy; });
  rig.radios[0]->transmit(rig.frame(), rig.airtime());
  rig.simulator.run();
  EXPECT_TRUE(sensedBusy);
  EXPECT_FALSE(rig.radios[1]->mediumBusy());  // back to idle afterwards
}

TEST(Radio, OutOfSensingRangeIsSilent) {
  Rig rig{{{0, 0}, {1400, 0}}};
  bool sensedBusy = false;
  rig.radios[1]->setMediumCallback([&](bool busy) { sensedBusy |= busy; });
  rig.radios[0]->transmit(rig.frame(), rig.airtime());
  rig.simulator.run();
  EXPECT_FALSE(sensedBusy);
}

TEST(Radio, SimultaneousTransmissionsCollide) {
  // Two equidistant transmitters, one receiver in the middle: neither
  // frame survives the SINR check (equal power => SINR ~ 1 << 10).
  Rig rig{{{0, 0}, {200, 0}, {100, 0}}};
  int delivered = 0;
  rig.radios[2]->setReceiveCallback(
      [&](const PhyFramePtr&, const RxInfo&) { ++delivered; });
  rig.radios[0]->transmit(rig.frame(), rig.airtime());
  rig.radios[1]->transmit(rig.frame(), rig.airtime());
  rig.simulator.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(rig.radios[2]->stats().framesCorrupted, 1u);
}

TEST(Radio, CaptureStrongFrameSurvivesWeakInterference) {
  // Interferer far away (weak at receiver), desired sender close: the
  // locked frame's SINR stays above 10 dB and it is delivered.
  Rig rig{{{0, 0}, {500, 100}, {50, 0}}};
  int delivered = 0;
  rig.radios[2]->setReceiveCallback(
      [&](const PhyFramePtr&, const RxInfo&) { ++delivered; });
  rig.radios[0]->transmit(rig.frame(), rig.airtime());
  rig.radios[1]->transmit(rig.frame(), rig.airtime());
  rig.simulator.run();
  EXPECT_EQ(delivered, 1);
}

TEST(Radio, LateInterferenceCorruptsLockedFrame) {
  // The receiver locks onto a clean frame; halfway through, a same-power
  // transmitter starts — SINR dips, corruption is latched.
  Rig rig{{{0, 0}, {200, 0}, {100, 0}}};
  int delivered = 0;
  rig.radios[2]->setReceiveCallback(
      [&](const PhyFramePtr&, const RxInfo&) { ++delivered; });
  rig.radios[0]->transmit(rig.frame(), rig.airtime());
  rig.simulator.schedule(rig.airtime() / 2, [&] {
    rig.radios[1]->transmit(rig.frame(), rig.airtime());
  });
  rig.simulator.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(rig.radios[2]->stats().framesCorrupted, 1u);
}

TEST(Radio, HalfDuplexCannotReceiveWhileTransmitting) {
  Rig rig{{{0, 0}, {100, 0}}};
  int delivered = 0;
  rig.radios[1]->setReceiveCallback(
      [&](const PhyFramePtr&, const RxInfo&) { ++delivered; });
  // Radio 1 transmits for the whole window radio 0's frame arrives in.
  rig.radios[1]->transmit(rig.frame(1000), rig.airtime(1000));
  rig.radios[0]->transmit(rig.frame(), rig.airtime());
  rig.simulator.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_GE(rig.radios[1]->stats().framesMissedBusy, 1u);
}

TEST(Radio, SecondDecodableFrameWhileLockedIsMissed) {
  Rig rig{{{0, 0}, {40, 150}, {40, 0}}};
  int delivered = 0;
  rig.radios[2]->setReceiveCallback(
      [&](const PhyFramePtr&, const RxInfo&) { ++delivered; });
  rig.radios[0]->transmit(rig.frame(), rig.airtime());
  // Radio 1 is at 150 m from the receiver: decodable in isolation
  // (~7.7x the threshold) but ~16 dB below radio 0's 40 m frame, so it
  // cannot steal the lock and does not corrupt it either.
  rig.simulator.schedule(10_us, [&] {
    rig.radios[1]->transmit(rig.frame(), rig.airtime());
  });
  rig.simulator.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_GE(rig.radios[2]->stats().framesMissedBusy, 1u);
}

TEST(Radio, TxStatsAccumulate) {
  Rig rig{{{0, 0}, {100, 0}}};
  rig.radios[0]->transmit(rig.frame(200), rig.airtime(200));
  rig.simulator.run();
  EXPECT_EQ(rig.radios[0]->stats().framesSent, 1u);
  EXPECT_EQ(rig.radios[0]->stats().bytesSent, 200u);
  EXPECT_EQ(rig.radios[0]->stats().airtimeTx, rig.airtime(200));
}

TEST(Radio, RayleighLinkAtNominalRangeLosesAboutSixtyPercent) {
  // A 250 m link under Rayleigh fading succeeds with probability ~ e^-1.
  // This is the "long links are lossy" regime of Section 4.2.1.
  Rig rig{{{0, 0}, {250, 0}}, /*rayleigh=*/true};
  int delivered = 0;
  rig.radios[1]->setReceiveCallback(
      [&](const PhyFramePtr&, const RxInfo&) { ++delivered; });
  constexpr int kFrames = 4000;
  for (int i = 0; i < kFrames; ++i) {
    rig.simulator.schedule(SimTime::milliseconds(i * 10),
                           [&] { rig.radios[0]->transmit(rig.frame(), rig.airtime()); });
  }
  rig.simulator.run();
  EXPECT_NEAR(static_cast<double>(delivered) / kFrames, std::exp(-1.0), 0.03);
}

TEST(Radio, RayleighShortLinkIsReliable) {
  Rig rig{{{0, 0}, {100, 0}}, /*rayleigh=*/true};
  int delivered = 0;
  rig.radios[1]->setReceiveCallback(
      [&](const PhyFramePtr&, const RxInfo&) { ++delivered; });
  constexpr int kFrames = 2000;
  for (int i = 0; i < kFrames; ++i) {
    rig.simulator.schedule(SimTime::milliseconds(i * 10),
                           [&] { rig.radios[0]->transmit(rig.frame(), rig.airtime()); });
  }
  rig.simulator.run();
  EXPECT_GT(static_cast<double>(delivered) / kFrames, 0.95);
}

// ------------------------------------------------------- StaticLinkModel

TEST(StaticLinkModel, DirectedLinks) {
  auto model = std::make_unique<StaticLinkModel>(2);
  model->setLink(0, 1, 1e-9);
  // Reverse direction left at zero: the link is unidirectional.
  EXPECT_DOUBLE_EQ(model->meanRxPowerW(0, 1), 1e-9);
  EXPECT_DOUBLE_EQ(model->meanRxPowerW(1, 0), 0.0);

  Rig rig{std::move(model), 2};
  int forward = 0, backward = 0;
  rig.radios[1]->setReceiveCallback(
      [&](const PhyFramePtr&, const RxInfo&) { ++forward; });
  rig.radios[0]->setReceiveCallback(
      [&](const PhyFramePtr&, const RxInfo&) { ++backward; });
  rig.radios[0]->transmit(rig.frame(), rig.airtime());
  rig.simulator.schedule(100_ms, [&] {
    rig.radios[1]->transmit(rig.frame(), rig.airtime());
  });
  rig.simulator.run();
  EXPECT_EQ(forward, 1);
  EXPECT_EQ(backward, 0);
}

TEST(StaticLinkModel, BernoulliLossRate) {
  auto model = std::make_unique<StaticLinkModel>(2);
  model->setSymmetric(0, 1, 1e-9);
  model->setLossRate(0, 1, 0.4);
  Rig rig{std::move(model), 2, /*seed=*/7};
  int delivered = 0;
  rig.radios[1]->setReceiveCallback(
      [&](const PhyFramePtr&, const RxInfo&) { ++delivered; });
  constexpr int kFrames = 5000;
  for (int i = 0; i < kFrames; ++i) {
    rig.simulator.schedule(SimTime::milliseconds(i * 5),
                           [&] { rig.radios[0]->transmit(rig.frame(), rig.airtime()); });
  }
  rig.simulator.run();
  EXPECT_NEAR(static_cast<double>(delivered) / kFrames, 0.6, 0.03);
}

TEST(Channel, ReachabilityCacheSkipsFarNodes) {
  Rig rig{{{0, 0}, {100, 0}, {5000, 5000}}};
  rig.radios[0]->transmit(rig.frame(), rig.airtime());
  rig.simulator.run();
  // Only one delivery was scheduled (to the 100 m neighbor).
  EXPECT_EQ(rig.channel->stats().deliveriesScheduled, 1u);
}

TEST(Channel, StatsCountTransmissions) {
  Rig rig{{{0, 0}, {100, 0}}};
  rig.radios[0]->transmit(rig.frame(), rig.airtime());
  rig.simulator.schedule(50_ms, [&] {
    rig.radios[1]->transmit(rig.frame(), rig.airtime());
  });
  rig.simulator.run();
  EXPECT_EQ(rig.channel->stats().transmissions, 2u);
}

}  // namespace
}  // namespace mesh::phy
