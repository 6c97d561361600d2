#pragma once
// Small-scale fading models.
//
// Fading multiplies the mean received power by a random per-packet gain.
// The paper uses Rayleigh fading ("appropriate for environments with many
// large reflectors ... where the sender and the receiver are not in
// Line-of-Sight"): for a Rayleigh channel the power gain |h|² is Exp(1),
// so a link whose mean power sits exactly at the reception threshold
// succeeds with probability e⁻¹ ≈ 37% — this is what makes long links
// lossy and drives every throughput result in Section 4.

#include <cmath>

#include "mesh/common/assert.hpp"
#include "mesh/common/rng.hpp"

namespace mesh::phy {

class FadingModel {
 public:
  virtual ~FadingModel() = default;
  // Multiplicative power gain for one packet on one link. Must have unit
  // mean so that fading does not change average link budget.
  virtual double powerGain(Rng& rng) const = 0;
};

class NoFading final : public FadingModel {
 public:
  double powerGain(Rng&) const override { return 1.0; }
};

class RayleighFading final : public FadingModel {
 public:
  double powerGain(Rng& rng) const override { return rng.rayleighPowerGain(); }

  // Closed-form packet success probability for a link whose mean power is
  // `margin` times the threshold: P(gain >= 1/margin) = exp(-1/margin).
  // Used by tests to validate the sampled behaviour.
  static double successProbability(double margin) {
    MESH_REQUIRE(margin > 0.0);
    return std::exp(-1.0 / margin);
  }
};

}  // namespace mesh::phy
