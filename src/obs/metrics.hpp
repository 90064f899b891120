// Metrics registry: named counters, gauges, and histograms with typed
// handles.
//
// Call sites obtain a handle once (registration walks a name map) and bump
// it on the hot path (a pointer increment). When the registry is disabled,
// registration returns a null handle and every operation is a single
// predictable branch — instrumentation can stay compiled in everywhere.
//
// Handles with the same name share one slot, so per-node call sites
// aggregate cluster-wide automatically. snapshot() captures every value as
// a sorted name->double map; diff() gives deltas between two snapshots
// (e.g. per-phase breakdowns around a workload boundary).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/stats.hpp"

namespace cagvt::obs {

/// Monotonic event count.
class CounterHandle {
 public:
  CounterHandle() = default;
  void inc(std::uint64_t by = 1) {
    if (slot_ != nullptr) *slot_ += by;
  }
  std::uint64_t value() const { return slot_ != nullptr ? *slot_ : 0; }
  bool valid() const { return slot_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit CounterHandle(std::uint64_t* slot) : slot_(slot) {}
  std::uint64_t* slot_ = nullptr;
};

/// Last-written value (occupancy, rate, configuration echo).
class GaugeHandle {
 public:
  GaugeHandle() = default;
  void set(double v) {
    if (slot_ != nullptr) *slot_ = v;
  }
  void max_of(double v) {
    if (slot_ != nullptr && v > *slot_) *slot_ = v;
  }
  double value() const { return slot_ != nullptr ? *slot_ : 0; }
  bool valid() const { return slot_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit GaugeHandle(double* slot) : slot_(slot) {}
  double* slot_ = nullptr;
};

/// Fixed-bucket distribution (uses util's Histogram).
class HistogramHandle {
 public:
  HistogramHandle() = default;
  void observe(double v) {
    if (slot_ != nullptr) slot_->add(v);
  }
  const Histogram* get() const { return slot_; }
  bool valid() const { return slot_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit HistogramHandle(Histogram* slot) : slot_(slot) {}
  Histogram* slot_ = nullptr;
};

/// Point-in-time capture of every registered metric, flattened to scalar
/// series. Histograms expand to <name>.count/.mean/.min/.max plus one
/// <name>.bucketN entry per bucket. std::map keeps iteration (and thus
/// every export) deterministically name-ordered.
struct MetricsSnapshot {
  std::map<std::string, double> values;

  double value(const std::string& name, double fallback = 0) const {
    const auto it = values.find(name);
    return it != values.end() ? it->second : fallback;
  }
};

/// Delta of numeric values between `later` and `earlier`; names only
/// present in `later` (metrics registered in between) keep their value.
MetricsSnapshot diff(const MetricsSnapshot& later, const MetricsSnapshot& earlier);

class MetricsRegistry {
 public:
  explicit MetricsRegistry(bool enabled = false) : enabled_(enabled) {}
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  bool enabled() const { return enabled_; }

  /// Register (or re-obtain) a metric by name. Re-registering an existing
  /// name returns a handle to the same slot; registering a name as a
  /// different metric type throws std::invalid_argument.
  CounterHandle counter(const std::string& name);
  GaugeHandle gauge(const std::string& name);
  HistogramHandle histogram(const std::string& name, double lo, double hi,
                            std::size_t buckets);

  MetricsSnapshot snapshot() const;

  /// Drop every registered metric (outstanding handles become dangling —
  /// only call between runs, before re-registration).
  void reset();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Slot {
    Kind kind;
    std::uint64_t counter = 0;
    double gauge = 0;
    std::unique_ptr<Histogram> hist;
  };

  Slot& slot_for(const std::string& name, Kind kind);

  bool enabled_;
  // unique_ptr keeps slot addresses stable across registrations.
  std::map<std::string, std::unique_ptr<Slot>> slots_;
};

/// Counter handle that registers its name on first use rather than at
/// construction, so a metric a run never touches stays absent from
/// snapshots and exports (which names appear says which mechanisms fired).
/// Build it once; the first inc() walks the name map, later ones are a
/// pointer bump. `name` must outlive the handle (pass a string literal).
class LazyCounter {
 public:
  LazyCounter(MetricsRegistry& registry, const char* name) : registry_(&registry), name_(name) {}
  void inc(std::uint64_t by = 1) {
    if (!handle_.valid()) {
      if (!registry_->enabled()) return;
      handle_ = registry_->counter(name_);
    }
    handle_.inc(by);
  }

 private:
  MetricsRegistry* registry_;
  const char* name_;
  CounterHandle handle_;
};

/// Gauge counterpart of LazyCounter: registered by its first set().
class LazyGauge {
 public:
  LazyGauge(MetricsRegistry& registry, const char* name) : registry_(&registry), name_(name) {}
  void set(double v) {
    if (!handle_.valid()) {
      if (!registry_->enabled()) return;
      handle_ = registry_->gauge(name_);
    }
    handle_.set(v);
  }

 private:
  MetricsRegistry* registry_;
  const char* name_;
  GaugeHandle handle_;
};

}  // namespace cagvt::obs
