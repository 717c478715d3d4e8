// Session model.
//
// A session is a single-path flow from a source host to a destination
// host with an optional maximum requested rate (its *demand*, the r in
// API.Join(s, r)) and a max-min weight; demand defaults to unlimited and
// weight to 1.  Paths are fixed at join time, as in the paper (§II).
//
// SessionSpec doubles as the input record of the centralized solvers
// (core/maxmin.hpp) and as the snapshot the protocols return from
// active_specs() — the two must agree field for field so protocol runs
// can be validated against the solvers.
//
// Units: demand in Mbps (net::Link capacity units); weight is a
// dimensionless positive finite factor.
#pragma once

#include "base/ids.hpp"
#include "base/rate.hpp"
#include "net/routing.hpp"

namespace bneck::core {

struct SessionSpec {
  SessionId id;
  net::Path path;                 // source access link ... destination access link
  Rate demand = kRateInfinity;    // maximum requested rate r_s

  /// Weighted max-min extension (Hou et al. [12] direction), honored by
  /// the centralized solvers AND the distributed B-Neck protocol.  A
  /// session with weight w receives w times the share of an equal
  /// competitor at every common bottleneck.  Must be > 0 and finite.
  double weight = 1.0;
};

}  // namespace bneck::core
