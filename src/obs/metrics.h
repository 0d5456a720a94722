#ifndef POLYDAB_OBS_METRICS_H_
#define POLYDAB_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

/// \file metrics.h
/// Process-local telemetry instruments: named counters, gauges and
/// log-bucketed latency histograms collected in a MetricRegistry, plus an
/// RAII ScopedTimer that records elapsed wall time into a histogram.
///
/// Design constraints (see docs/OBSERVABILITY.md):
///  * Hot-path friendly. Recording is a relaxed atomic add — no locks, no
///    allocation. Instrument lookup (the only locked operation) happens
///    once per run, not per event: callers cache the returned pointers.
///  * Optional everywhere. Every instrumented layer takes a nullable
///    `MetricRegistry*`; a null registry means the instrumented code runs
///    a single predictable branch and touches nothing else, so benchmarks
///    without a registry measure the uninstrumented cost.
///  * Instruments are named `layer.component.metric`, e.g.
///    `gp.solver.newton_iterations` or `sim.coordinator.refreshes`.
///
/// Quantiles are approximate: histograms bucket values geometrically with
/// growth factor 2^(1/4) per bucket (~19% relative width), which is ample
/// for latency distributions spanning nanoseconds to minutes.

namespace polydab::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void Inc() { value_.fetch_add(1, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-write-wins instantaneous value (configuration knobs, final rates).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Log-bucketed distribution of non-negative samples (latencies in
/// seconds, per-tick event counts, per-edge traffic...).
class Histogram {
 public:
  /// Geometric buckets: bucket i covers [kMinValue·g^i, kMinValue·g^(i+1))
  /// with g = 2^(1/4). 256 buckets span kMinValue·2^64 ≈ 1.8e10, i.e.
  /// 1 ns to ~584 years when samples are seconds.
  static constexpr int kNumBuckets = 256;
  static constexpr double kMinValue = 1e-9;

  void Record(double v);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Exact extrema of the recorded samples (0 when empty).
  double min() const;
  double max() const { return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed); }
  double mean() const { return count() == 0 ? 0.0 : sum() / static_cast<double>(count()); }

  /// Approximate q-quantile (q in [0, 1]) by linear interpolation inside
  /// the containing bucket; exact at q = 0 and q = 1. Returns 0 when empty.
  double Quantile(double q) const;

  /// Crash-recovery checkpoint support (src/recovery/): copy out /
  /// overwrite the full internal state, bit-exactly — `sum` is restored
  /// as the same partial-sum double so later Records keep the original
  /// fold order's bits. \p buckets holds (index, count) pairs for the
  /// non-empty buckets; raw_min/raw_max are the internal fold
  /// identities (±inf while empty), not the 0-reporting accessors.
  void SnapshotState(std::vector<std::pair<int, int64_t>>* buckets,
                     int64_t* count, double* sum, double* raw_min,
                     double* raw_max) const {
    buckets->clear();
    for (int i = 0; i < kNumBuckets; ++i) {
      const int64_t n = buckets_[static_cast<size_t>(i)].load(
          std::memory_order_relaxed);
      if (n != 0) buckets->emplace_back(i, n);
    }
    *count = count_.load(std::memory_order_relaxed);
    *sum = sum_.load(std::memory_order_relaxed);
    *raw_min = min_.load(std::memory_order_relaxed);
    *raw_max = max_.load(std::memory_order_relaxed);
  }
  void RestoreState(const std::vector<std::pair<int, int64_t>>& buckets,
                    int64_t count, double sum, double raw_min,
                    double raw_max) {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    for (const auto& [i, n] : buckets) {
      buckets_[static_cast<size_t>(i)].store(n, std::memory_order_relaxed);
    }
    count_.store(count, std::memory_order_relaxed);
    sum_.store(sum, std::memory_order_relaxed);
    min_.store(raw_min, std::memory_order_relaxed);
    max_.store(raw_max, std::memory_order_relaxed);
  }

 private:
  static int BucketOf(double v);

  std::array<std::atomic<int64_t>, kNumBuckets> buckets_{};
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  // Extrema start at the identity of their own min/max fold (+inf / -inf)
  // so every Record can run the same compare-exchange loop — a dedicated
  // first-sample store would race with concurrent recorders and lose
  // updates. The accessors report 0 while the histogram is empty.
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// What a registry entry is; used by the exporter.
enum class InstrumentKind { kCounter, kGauge, kHistogram };

/// Name -> instrument store. Lookups create on first use and always return
/// the same stable pointer afterwards; pointers stay valid for the
/// registry's lifetime. Looking up an existing name with the wrong kind
/// aborts (naming bug, not a runtime condition).
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Kind of the instrument named \p name, or nullopt when there is none.
  /// Lets a caller holding untrusted names (a checkpoint restore) refuse a
  /// kind clash instead of aborting in Get*.
  std::optional<InstrumentKind> KindOf(const std::string& name) const;

  /// One exported instrument, used by RunReport.
  struct Entry {
    std::string name;
    InstrumentKind kind;
    const Counter* counter = nullptr;
    const Gauge* gauge = nullptr;
    const Histogram* histogram = nullptr;
  };

  /// All instruments in name order (stable export layout).
  std::vector<Entry> Entries() const;

 private:
  struct Slot {
    InstrumentKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mu_;
  std::map<std::string, Slot> slots_;
};

/// RAII wall-clock timer recording seconds into a histogram on scope exit.
/// A null histogram disables the timer entirely — the clock is never read,
/// so instrumented code pays one branch when telemetry is off.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* hist) : hist_(hist) {
    if (hist_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() { Stop(); }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Record now instead of at scope exit; idempotent. Returns the elapsed
  /// seconds that were recorded (0 when disabled or already stopped).
  double Stop() {
    if (hist_ == nullptr) return 0.0;
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - start_;
    hist_->Record(dt.count());
    hist_ = nullptr;
    return dt.count();
  }

 private:
  Histogram* hist_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace polydab::obs

#endif  // POLYDAB_OBS_METRICS_H_
