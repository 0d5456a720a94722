#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace polydab::obs {

namespace {

/// fetch_add / fetch_min / fetch_max for atomic<double> via CAS loops
/// (portable across libstdc++ versions; contention here is negligible).
void AtomicAdd(std::atomic<double>* a, double v) {
  double cur = a->load(std::memory_order_relaxed);
  while (!a->compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

void AtomicMin(std::atomic<double>* a, double v) {
  double cur = a->load(std::memory_order_relaxed);
  while (v < cur &&
         !a->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>* a, double v) {
  double cur = a->load(std::memory_order_relaxed);
  while (v > cur &&
         !a->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

int Histogram::BucketOf(double v) {
  if (!(v > kMinValue)) return 0;
  // log2(v / kMinValue) * 4 → geometric growth of 2^(1/4) per bucket.
  const int idx = static_cast<int>(std::log2(v / kMinValue) * 4.0);
  return std::min(idx, kNumBuckets - 1);
}

void Histogram::Record(double v) {
  if (!(v >= 0.0)) v = 0.0;  // negative / NaN samples clamp to zero
  buckets_[static_cast<size_t>(BucketOf(v))].fetch_add(
      1, std::memory_order_relaxed);
  AtomicAdd(&sum_, v);
  count_.fetch_add(1, std::memory_order_relaxed);
  // The extrema start at +inf / -inf, so the first sample wins its CAS
  // like any other — no special-cased first-sample store whose plain
  // write could clobber a concurrent recorder's update.
  AtomicMin(&min_, v);
  AtomicMax(&max_, v);
}

double Histogram::min() const {
  return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double Histogram::Quantile(double q) const {
  const int64_t n = count();
  if (n == 0) return 0.0;
  if (n == 1) {
    // A single sample is its own distribution: every quantile is that
    // sample (min() == max() == the sole recorded value), not the lower
    // bound of its bucket that interpolation with frac = 0 would yield.
    return max();
  }
  q = std::clamp(q, 0.0, 1.0);
  if (q <= 0.0) return min();
  if (q >= 1.0) return max();
  // Rank of the wanted sample (0-based, nearest-rank with interpolation
  // inside the containing bucket).
  const double rank = q * static_cast<double>(n - 1);
  int64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    const int64_t in_bucket = buckets_[static_cast<size_t>(i)].load(
        std::memory_order_relaxed);
    if (in_bucket == 0) continue;
    if (rank < static_cast<double>(seen + in_bucket)) {
      // Interpolate within [lo, hi) = this bucket's value range.
      const double lo =
          i == 0 ? 0.0 : kMinValue * std::exp2(static_cast<double>(i) / 4.0);
      const double hi = kMinValue * std::exp2(static_cast<double>(i + 1) / 4.0);
      const double frac =
          (rank - static_cast<double>(seen)) / static_cast<double>(in_bucket);
      return std::clamp(lo + frac * (hi - lo), min(), max());
    }
    seen += in_bucket;
  }
  return max();
}

Counter* MetricRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  Slot& slot = slots_[name];
  if (slot.counter == nullptr) {
    POLYDAB_CHECK(slot.gauge == nullptr && slot.histogram == nullptr);
    slot.kind = InstrumentKind::kCounter;
    slot.counter = std::make_unique<Counter>();
  }
  return slot.counter.get();
}

Gauge* MetricRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  Slot& slot = slots_[name];
  if (slot.gauge == nullptr) {
    POLYDAB_CHECK(slot.counter == nullptr && slot.histogram == nullptr);
    slot.kind = InstrumentKind::kGauge;
    slot.gauge = std::make_unique<Gauge>();
  }
  return slot.gauge.get();
}

Histogram* MetricRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  Slot& slot = slots_[name];
  if (slot.histogram == nullptr) {
    POLYDAB_CHECK(slot.counter == nullptr && slot.gauge == nullptr);
    slot.kind = InstrumentKind::kHistogram;
    slot.histogram = std::make_unique<Histogram>();
  }
  return slot.histogram.get();
}

std::optional<InstrumentKind> MetricRegistry::KindOf(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = slots_.find(name);
  if (it == slots_.end()) return std::nullopt;
  return it->second.kind;
}

std::vector<MetricRegistry::Entry> MetricRegistry::Entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Entry> out;
  out.reserve(slots_.size());
  for (const auto& [name, slot] : slots_) {
    Entry e;
    e.name = name;
    e.kind = slot.kind;
    e.counter = slot.counter.get();
    e.gauge = slot.gauge.get();
    e.histogram = slot.histogram.get();
    out.push_back(std::move(e));
  }
  return out;  // std::map iterates in name order already
}

}  // namespace polydab::obs
