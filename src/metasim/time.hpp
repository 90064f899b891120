// Simulated wall-clock time for the virtual cluster.
//
// The metasim layer models *hardware* time (what a cycle counter on a KNL
// node would read) as integer nanoseconds — integers keep the engine
// deterministic and total-ordered. This is distinct from the PDES layer's
// *virtual* time (the simulation model's logical clock), which is a double.
#pragma once

#include <cstdint>
#include <limits>

namespace cagvt::metasim {

/// Simulated wall-clock time in nanoseconds.
using SimTime = std::int64_t;

inline constexpr SimTime kTimeNever = std::numeric_limits<SimTime>::max();

constexpr SimTime nanoseconds(std::int64_t n) { return n; }
constexpr SimTime microseconds(double us) { return static_cast<SimTime>(us * 1e3); }
constexpr SimTime milliseconds(double ms) { return static_cast<SimTime>(ms * 1e6); }
constexpr SimTime seconds(double s) { return static_cast<SimTime>(s * 1e9); }

constexpr double to_seconds(SimTime t) { return static_cast<double>(t) * 1e-9; }

}  // namespace cagvt::metasim
