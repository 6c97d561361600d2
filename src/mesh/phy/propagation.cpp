#include "mesh/phy/propagation.hpp"

#include <cmath>
#include <limits>

namespace mesh::phy {
namespace {
constexpr double kPi = 3.14159265358979323846;
// Co-located radios would yield infinite Friis power; clamp distance.
constexpr double kMinDistanceM = 0.1;

// Friis free-space power at distance d (already clamped by the caller).
double friisAtDistance(const PhyParams& p, double d) {
  const double lambda = p.wavelengthM();
  const double denom = 4.0 * kPi * d;
  return p.txPowerW * p.antennaGainTx * p.antennaGainRx * lambda * lambda /
         (denom * denom * p.systemLoss);
}
}  // namespace

double TwoRayGroundModel::crossoverDistanceM(const PhyParams& p) {
  return 4.0 * kPi * p.antennaHeightM * p.antennaHeightM / p.wavelengthM();
}

double TwoRayGroundModel::atDistance(const PhyParams& p, double d) {
  d = std::max(d, kMinDistanceM);
  if (d < crossoverDistanceM(p)) return friisAtDistance(p, d);
  const double ht = p.antennaHeightM;
  const double hr = p.antennaHeightM;
  return p.txPowerW * p.antennaGainTx * p.antennaGainRx * ht * ht * hr * hr /
         (d * d * d * d * p.systemLoss);
}

double TwoRayGroundModel::rxPowerW(const PhyParams& p, Vec2 tx, Vec2 rx) const {
  return atDistance(p, tx.distanceTo(rx));
}

double maxRangeForMeanPowerM(const PropagationModel& model,
                             const PhyParams& params, double minPowerW,
                             double maxM) {
  MESH_REQUIRE(minPowerW > 0.0);
  MESH_REQUIRE(maxM > 0.0);
  const auto powerAt = [&](double d) {
    return model.rxPowerW(params, Vec2{0.0, 0.0}, Vec2{d, 0.0});
  };
  if (powerAt(maxM) >= minPowerW) {
    return std::numeric_limits<double>::infinity();
  }
  double lo = 0.0;  // models clamp co-located radios to a finite power
  if (powerAt(lo) < minPowerW) return 0.0;  // nothing is ever reachable
  double hi = 1.0;
  while (powerAt(hi) >= minPowerW) {
    lo = hi;
    hi *= 2.0;
    if (hi >= maxM) {
      hi = maxM;
      break;
    }
  }
  // Invariant: powerAt(lo) >= minPowerW > powerAt(hi). 60 halvings put
  // hi within machine precision of the true cutoff from above.
  for (int i = 0; i < 60; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (powerAt(mid) >= minPowerW) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return hi;
}

}  // namespace mesh::phy
