#pragma once
// Deterministic (large-scale) radio propagation models.
//
// These compute *mean* received power as a function of geometry; small-
// scale fading (Rayleigh) multiplies on top per packet. The TwoRay ground
// model is the paper's setting.

#include <memory>

#include "mesh/common/assert.hpp"
#include "mesh/common/vec2.hpp"
#include "mesh/phy/phy_params.hpp"

namespace mesh::phy {

class PropagationModel {
 public:
  virtual ~PropagationModel() = default;
  // Mean received power (W) for a transmitter at `tx` and receiver at `rx`.
  virtual double rxPowerW(const PhyParams& params, Vec2 tx, Vec2 rx) const = 0;
};

// TwoRay ground reflection with Friis free-space below the crossover
// distance dc = 4π ht hr / λ, as in ns-2/Glomosim:
//   d <  dc : Pr = Pt Gt Gr λ² / ((4π d)² L)
//   d >= dc : Pr = Pt Gt Gr ht² hr² / (d⁴ L)
class TwoRayGroundModel final : public PropagationModel {
 public:
  double rxPowerW(const PhyParams& params, Vec2 tx, Vec2 rx) const override;

  static double crossoverDistanceM(const PhyParams& params);
  static double atDistance(const PhyParams& params, double distanceM);
};

// Largest distance at which `model` can still deliver mean power >=
// `minPowerW`. All provided models are monotone non-increasing in
// distance, so a doubling search plus bisection brackets the cutoff; the
// returned value is the bracket's *upper* bound (mean power strictly
// below `minPowerW` there), which makes it safe to use as a pruning
// radius: every pair at or above the power floor is strictly closer.
// Returns +infinity when the floor is never crossed within `maxM`
// (pruning impossible; callers fall back to exhaustive scans).
double maxRangeForMeanPowerM(const PropagationModel& model,
                             const PhyParams& params, double minPowerW,
                             double maxM = 1e7);

}  // namespace mesh::phy
