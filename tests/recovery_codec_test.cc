// Unit coverage for the durable-state codecs (src/recovery/,
// docs/RECOVERY.md): checkpoint block round-trips on real engine
// snapshots (field for field and byte for byte), DiffCheckpoints seeing
// a change in any one field of any record, WAL record round-trips, the
// latest-complete-block and torn-trailing-block rules, and the
// strict-parse corruption diagnostics the format guarantees — truncated
// final line, unknown keys, version skew, digest mismatch, non-integral
// or out-of-range integers and histogram buckets are all InvalidArgument
// naming the line number, never a silent partial load. Snapshots that
// parse but name an out-of-range slot, lane, item, source or event kind
// are refused by the restart with a named error. The service-layer state
// string (svc::QueryService::SnapshotState) gets the same strictness
// check.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/hash.h"
#include "obs/metrics.h"
#include "recovery/checkpoint.h"
#include "recovery/recovery.h"
#include "recovery/wal.h"
#include "sim/simulation.h"
#include "svc/query_service.h"
#include "workload/query_gen.h"
#include "workload/rate_estimator.h"
#include "workload/tick_source.h"

namespace polydab::recovery {
namespace {

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void WriteAll(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::string line;
  std::istringstream in(text);
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string JoinLines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

/// Index of the latest block's header line.
int LastBlockStart(const std::vector<std::string>& lines) {
  for (int i = static_cast<int>(lines.size()) - 1; i >= 0; --i) {
    if (lines[i].find("\"t\":\"hdr\"") != std::string::npos) return i;
  }
  return -1;
}

/// Re-sign the latest block after an edit, the way a writer of the
/// edited snapshot would: recompute the FNV-1a digest footer (the last
/// line) over the block's lines.
void ResealLastBlock(std::vector<std::string>* lines) {
  const int start = LastBlockStart(*lines);
  uint32_t digest = kFnv1a32Seed;
  for (size_t i = static_cast<size_t>(start); i + 1 < lines->size(); ++i) {
    digest = Fnv1a32((*lines)[i].data(), (*lines)[i].size(), digest);
    digest = Fnv1a32("\n", 1, digest);
  }
  char footer[64];
  std::snprintf(footer, sizeof(footer),
                "{\"t\":\"end\",\"digest\":%u,\"n\":%zu}", digest,
                lines->size() - 1 - static_cast<size_t>(start));
  lines->back() = footer;
}

/// In the latest block, replace the first match of \p pattern in the
/// first \p tag record that has one. Returns the edited line's index,
/// -1 when no record matched.
int EditLatestRecord(std::vector<std::string>* lines, const std::string& tag,
                     const std::string& pattern,
                     const std::string& replacement) {
  const std::regex re(pattern);
  for (int i = LastBlockStart(*lines); i >= 0 &&
                                       i < static_cast<int>(lines->size());
       ++i) {
    std::string& line = (*lines)[i];
    if (line.rfind("{\"t\":\"" + tag + "\"", 0) != 0 ||
        !std::regex_search(line, re)) {
      continue;
    }
    line = std::regex_replace(line, re, replacement,
                              std::regex_constants::format_first_only);
    return i;
  }
  return -1;
}

/// Field-list visitor that changes field number `target` (in list
/// order) of one record, and counts the fields it walks.
struct Perturb {
  int target = -1;
  int walked = 0;
  std::string key;

  template <class T>
  void operator()(const char* k, T& field) {
    if (walked++ != target) return;
    key = k;
    Bump(field);
  }
  void operator()(const char* k, double& field, TokenTag) { (*this)(k, field); }
  template <class R>
  void Count(const char*, std::vector<R>&, const char*) {}

  static void Bump(bool& v) { v = !v; }
  static void Bump(char& v) { v = v == 'g' ? 'c' : 'g'; }
  template <class T>
    requires std::is_integral_v<T>
  static void Bump(T& v) {
    v = static_cast<T>(v + 1);
  }
  static void Bump(double& v) {
    v = std::isfinite(v) && v != 0.0 ? v * 1.5 : 0.5;
  }
  static void Bump(std::string& v) { v += "x"; }
  template <class T>
  static void Bump(std::vector<T>& v) {
    v.emplace_back();
  }
};

/// Change each field \p walk visits, one at a time, and expect
/// DiffCheckpoints to report exactly that one difference. Returns the
/// number of fields walked.
template <class Walk>
int ExpectEveryFieldDiffs(const CheckpointState& base, const std::string& what,
                          Walk walk) {
  Perturb counter;
  CheckpointState scratch = base;
  walk(scratch, counter);
  EXPECT_GT(counter.walked, 0) << what;
  for (int f = 0; f < counter.walked; ++f) {
    CheckpointState changed = base;
    Perturb p;
    p.target = f;
    walk(changed, p);
    std::string out;
    const int n = DiffCheckpoints(base, changed, 10, &out);
    if (what.rfind("reg", 0) == 0 && p.key == "k") {
      // A kind change also re-keys the record; it must at least show.
      EXPECT_GE(n, 1) << what << "." << p.key;
    } else {
      EXPECT_EQ(n, 1) << what << "." << p.key << "\n" << out;
    }
  }
  return counter.walked;
}

/// Produces genuine on-disk artifacts by running the engine with the
/// checkpoint cadence on (no crash): a multi-block checkpoint file and a
/// WAL with row records. Fault injection and a metric registry (with a
/// gauge alongside the engine's counters and histograms) are attached so
/// the snapshot exercises every record kind.
class RecoveryCodecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Paths carry the test name: ctest runs each case as its own
    // process, in parallel, all sharing TempDir.
    const std::string unique =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    ckpt_path_ = ::testing::TempDir() + "recovery_codec_" + unique + ".ckpt";
    wal_path_ = ::testing::TempDir() + "recovery_codec_" + unique + ".wal";
    std::remove(ckpt_path_.c_str());
    std::remove(wal_path_.c_str());

    Rng rng(4242);
    workload::TraceSetConfig tc;
    tc.num_items = 16;
    tc.num_ticks = 90;
    traces_ = *workload::GenerateTraceSet(tc, &rng);
    rates_ = *workload::EstimateRates(traces_, 60);
    workload::QueryGenConfig qc;
    qc.num_items = 16;
    queries_ = *workload::GeneratePortfolioQueries(6, qc,
                                                   traces_.Snapshot(0), &rng);

    RecoveryConfig rc;
    rc.checkpoint_path = ckpt_path_;
    rc.wal_path = wal_path_;
    rc.interval_s = 30;
    obs::MetricRegistry registry;
    auto m = sim::RunSimulation(queries_, traces_, rates_,
                                Config(&rc, &registry));
    ASSERT_TRUE(m.ok()) << m.status().ToString();
  }

  static sim::SimConfig Config(RecoveryConfig* rc,
                               obs::MetricRegistry* registry) {
    registry->GetGauge("test.fixture.gauge")->Set(2.5);
    sim::SimConfig config;
    config.seed = 7;
    config.fault.drop_prob = 0.05;
    config.recovery = rc;
    config.registry = registry;
    return config;
  }

  /// Crash the fixture's run at tick 70 with a 46 s cadence (so the
  /// latest snapshot, tick 46, holds a 17-message event heap), edit that
  /// snapshot's first \p tag record matching \p pattern,
  /// reseal the digest so the file still loads, and restart from it with
  /// the WAL and a correctly positioned tick source. Returns the
  /// restart's status.
  Status RestartFromEditedSnapshot(const std::string& tag,
                                   const std::string& pattern,
                                   const std::string& replacement) {
    const std::string ckpt = ckpt_path_ + ".crash";
    const std::string wal = wal_path_ + ".crash";
    std::remove(ckpt.c_str());
    std::remove(wal.c_str());
    constexpr int kCrashTick = 70;
    constexpr int kInterval = 46;
    RecoveryConfig crash_rc;
    crash_rc.checkpoint_path = ckpt;
    crash_rc.wal_path = wal;
    crash_rc.interval_s = kInterval;
    crash_rc.crash_at_tick = kCrashTick;
    obs::MetricRegistry crash_registry;
    auto crashed = sim::RunSimulation(queries_, traces_, rates_,
                                      Config(&crash_rc, &crash_registry));
    if (!crashed.ok()) return crashed.status();
    if (!crash_rc.crashed) return Status::Internal("crash leg did not crash");

    std::vector<std::string> lines = SplitLines(ReadAll(ckpt));
    if (EditLatestRecord(&lines, tag, pattern, replacement) < 0) {
      return Status::Internal("no '" + tag + "' record matches " + pattern);
    }
    ResealLastBlock(&lines);
    WriteAll(ckpt, JoinLines(lines));
    CheckpointState state;
    POLYDAB_RETURN_NOT_OK(LoadLatestCheckpoint(ckpt, &state));
    std::vector<WalRecord> records;
    POLYDAB_RETURN_NOT_OK(LoadWal(wal, &records));

    RecoveryConfig restart_rc;
    restart_rc.checkpoint_path = ckpt + ".restart";
    restart_rc.wal_path = wal;
    restart_rc.interval_s = kInterval;
    restart_rc.restart = &state;
    restart_rc.wal = &records;
    obs::MetricRegistry restart_registry;
    workload::TraceSetTickSource source(&traces_);
    Vector row;
    for (int t = 0; t < kCrashTick; ++t) {
      auto got = source.Next(&row);
      if (!got.ok() || !*got) return Status::Internal("short tick source");
    }
    auto restarted = sim::RunSimulation(
        queries_, source, rates_, Config(&restart_rc, &restart_registry));
    std::remove(ckpt.c_str());
    std::remove(wal.c_str());
    std::remove(restart_rc.checkpoint_path.c_str());
    return restarted.status();
  }

  void ExpectRestartRejects(const std::string& tag, const std::string& pattern,
                            const std::string& replacement,
                            const std::string& needle) {
    const Status s = RestartFromEditedSnapshot(tag, pattern, replacement);
    ASSERT_EQ(s.code(), StatusCode::kInvalidArgument)
        << "expected '" << needle << "', got " << s.ToString();
    EXPECT_NE(s.ToString().find("restart: checkpoint"), std::string::npos)
        << s.ToString();
    EXPECT_NE(s.ToString().find(needle), std::string::npos) << s.ToString();
  }

  void TearDown() override {
    std::remove(ckpt_path_.c_str());
    std::remove(wal_path_.c_str());
  }

  /// Expect LoadLatestCheckpoint to fail with a diagnostic carrying both
  /// the line number and the named cause.
  void ExpectCkptError(const std::string& text, int line,
                       const std::string& needle) {
    const std::string path = ckpt_path_ + ".bad";
    WriteAll(path, text);
    CheckpointState state;
    Status loaded = LoadLatestCheckpoint(path, &state);
    std::remove(path.c_str());
    ASSERT_FALSE(loaded.ok()) << "expected failure: " << needle;
    EXPECT_NE(loaded.ToString().find("line " + std::to_string(line)),
              std::string::npos)
        << loaded.ToString();
    EXPECT_NE(loaded.ToString().find(needle), std::string::npos)
        << loaded.ToString();
  }

  void ExpectWalError(const std::string& text, int line,
                      const std::string& needle) {
    const std::string path = wal_path_ + ".bad";
    WriteAll(path, text);
    std::vector<WalRecord> records;
    Status loaded = LoadWal(path, &records);
    std::remove(path.c_str());
    ASSERT_FALSE(loaded.ok()) << "expected failure: " << needle;
    EXPECT_NE(loaded.ToString().find("line " + std::to_string(line)),
              std::string::npos)
        << loaded.ToString();
    EXPECT_NE(loaded.ToString().find(needle), std::string::npos)
        << loaded.ToString();
  }

  workload::TraceSet traces_;
  Vector rates_;
  std::vector<PolynomialQuery> queries_;
  std::string ckpt_path_;
  std::string wal_path_;
};

TEST_F(RecoveryCodecTest, CheckpointRoundTripsFieldForField) {
  CheckpointState loaded;
  ASSERT_TRUE(LoadLatestCheckpoint(ckpt_path_, &loaded).ok());
  EXPECT_EQ(loaded.tick, 60);  // the latest block (ticks 1..89 run)
  EXPECT_FALSE(loaded.instruments.empty() && loaded.events.empty() &&
               loaded.queries.empty());

  const std::string copy_path =
      ::testing::TempDir() + "recovery_codec_copy.ckpt";
  std::remove(copy_path.c_str());
  ASSERT_TRUE(WriteCheckpoint(loaded, copy_path).ok());
  CheckpointState reloaded;
  ASSERT_TRUE(LoadLatestCheckpoint(copy_path, &reloaded).ok());
  std::remove(copy_path.c_str());

  std::string diffs;
  EXPECT_EQ(DiffCheckpoints(loaded, reloaded, 20, &diffs), 0) << diffs;
}

TEST_F(RecoveryCodecTest, CheckpointReencodesByteForByte) {
  const std::vector<std::string> lines = SplitLines(ReadAll(ckpt_path_));
  const int start = LastBlockStart(lines);
  ASSERT_GE(start, 0);
  CheckpointState loaded;
  ASSERT_TRUE(LoadLatestCheckpoint(ckpt_path_, &loaded).ok());
  // Every record kind is present, instruments of all three kinds too.
  EXPECT_FALSE(loaded.queries.empty());
  EXPECT_FALSE(loaded.parts.empty());
  EXPECT_FALSE(loaded.events.empty());
  EXPECT_FALSE(loaded.sources.empty());
  EXPECT_FALSE(loaded.item_fault.empty());
  std::string kinds;
  for (const CheckpointInstrument& ins : loaded.instruments) {
    if (kinds.find(ins.kind) == std::string::npos) kinds += ins.kind;
  }
  EXPECT_EQ(kinds.size(), 3u) << kinds;

  const std::string copy_path = ckpt_path_ + ".copy";
  std::remove(copy_path.c_str());
  ASSERT_TRUE(WriteCheckpoint(loaded, copy_path).ok());
  const std::string copy = ReadAll(copy_path);
  std::remove(copy_path.c_str());
  EXPECT_EQ(copy, JoinLines(std::vector<std::string>(lines.begin() + start,
                                                     lines.end())));
}

TEST_F(RecoveryCodecTest, DiffSeesEveryFieldOfEveryRecord) {
  CheckpointState st;
  ASSERT_TRUE(LoadLatestCheckpoint(ckpt_path_, &st).ok());
  ASSERT_FALSE(st.queries.empty() || st.parts.empty() || st.events.empty() ||
               st.sources.empty() || st.item_fault.empty());
  int fields = 0;
  fields += ExpectEveryFieldDiffs(st, "hdr", [](auto& s, auto& v) {
    CheckpointState::HeaderFields(s, v);
  });
  fields += ExpectEveryFieldDiffs(st, "met", [](auto& s, auto& v) {
    CheckpointState::MetricFields(s, v);
  });
  fields += ExpectEveryFieldDiffs(st, "items", [](auto& s, auto& v) {
    CheckpointState::ItemFields(s, v);
  });
  fields += ExpectEveryFieldDiffs(st, "q", [](auto& s, auto& v) {
    CheckpointQuery::Fields(s.queries[0], v);
  });
  fields += ExpectEveryFieldDiffs(st, "part", [](auto& s, auto& v) {
    CheckpointPart::Fields(s.parts[0], v);
  });
  fields += ExpectEveryFieldDiffs(st, "ev", [](auto& s, auto& v) {
    QueuedEvent::Fields(s.events[0], v);
  });
  fields += ExpectEveryFieldDiffs(st, "src", [](auto& s, auto& v) {
    SourceState::Fields(s.sources[0], v);
  });
  fields += ExpectEveryFieldDiffs(st, "if", [](auto& s, auto& v) {
    ItemFaultState::Fields(s.item_fault[0], v);
  });
  for (char kind : {'c', 'g', 'h'}) {
    size_t at = 0;
    while (at < st.instruments.size() && st.instruments[at].kind != kind) ++at;
    ASSERT_LT(at, st.instruments.size()) << "no instrument of kind " << kind;
    fields += ExpectEveryFieldDiffs(
        st, std::string("reg.") + kind, [at](auto& s, auto& v) {
          CheckpointInstrument::Fields(s.instruments[at], v);
        });
  }
  // The optional-keyed iq record is hand-written: its two lists.
  size_t item = 0;
  while (item < st.item_queries.size() && st.item_queries[item].empty()) {
    ++item;
  }
  ASSERT_LT(item, st.item_queries.size());
  for (bool lanes : {false, true}) {
    CheckpointState changed = st;
    (lanes ? changed.item_shards : changed.item_queries)[item].push_back(3);
    std::string out;
    EXPECT_EQ(DiffCheckpoints(st, changed, 10, &out), 1) << out;
    ++fields;
  }
  // Header (14) + metrics (10) + items (7) + q (12) + part (11) + ev (7)
  // + src (6) + if (13) + reg c/g/h (3 + 3 + 7) + iq (2).
  EXPECT_EQ(fields, 95);
}

TEST_F(RecoveryCodecTest, LoaderTakesLatestCompleteBlock) {
  // The 90-tick run with a 30 s cadence appended two blocks; tampering
  // an *earlier* block's bytes must not matter, because only the last
  // complete block is decoded and digest-checked.
  std::string text = ReadAll(ckpt_path_);
  const size_t first_hdr = text.find("\"t\":\"hdr\"");
  ASSERT_NE(first_hdr, std::string::npos);
  text.replace(text.find("\"tick\":30"), 9, "\"tick\":31");
  const std::string path = ::testing::TempDir() + "recovery_codec_prev.ckpt";
  WriteAll(path, text);
  CheckpointState state;
  Status loaded = LoadLatestCheckpoint(path, &state);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  EXPECT_EQ(state.tick, 60);
}

TEST_F(RecoveryCodecTest, TornTrailingBlockFallsBackToPreviousSnapshot) {
  // A crash mid-write leaves a header with no digest footer at the end
  // of the file; the loader must fall back to the previous snapshot.
  std::vector<std::string> lines = SplitLines(ReadAll(ckpt_path_));
  std::string torn = JoinLines(lines);
  torn += lines[0];  // a fresh block header, then nothing
  torn += '\n';
  const std::string path = ::testing::TempDir() + "recovery_codec_torn.ckpt";
  WriteAll(path, torn);
  CheckpointState state;
  Status loaded = LoadLatestCheckpoint(path, &state);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  EXPECT_EQ(state.tick, 60);
}

TEST_F(RecoveryCodecTest, TruncatedFinalLineIsNamedError) {
  std::string text = ReadAll(ckpt_path_);
  const int last_line = static_cast<int>(SplitLines(text).size());
  text.resize(text.size() - 5);  // clip inside the digest footer
  ExpectCkptError(text, last_line, "truncated record at end of file");
}

TEST_F(RecoveryCodecTest, TamperedBlockFailsTheDigest) {
  std::vector<std::string> lines = SplitLines(ReadAll(ckpt_path_));
  // Flip a value inside the *last* block (its header carries tick 60).
  bool flipped = false;
  for (std::string& line : lines) {
    const size_t at = line.find("\"tick\":60");
    if (at != std::string::npos) {
      line.replace(at, 9, "\"tick\":61");
      flipped = true;
    }
  }
  ASSERT_TRUE(flipped);
  ExpectCkptError(JoinLines(lines), static_cast<int>(lines.size()),
                  "ckpt digest mismatch");
}

TEST_F(RecoveryCodecTest, UnknownKeyIsNamedError) {
  std::vector<std::string> lines = SplitLines(ReadAll(ckpt_path_));
  std::string& footer = lines.back();
  ASSERT_NE(footer.find("\"t\":\"end\""), std::string::npos);
  footer.insert(footer.find("\"digest\""), "\"zzz\":1,");
  ExpectCkptError(JoinLines(lines), static_cast<int>(lines.size()),
                  "unknown key 'zzz'");
}

TEST_F(RecoveryCodecTest, VersionSkewIsNamedErrorEvenWithAValidDigest) {
  // Re-sign the tampered block so the version check — not the digest —
  // is what rejects it: exactly what a snapshot written by a newer build
  // would look like.
  std::vector<std::string> lines = SplitLines(ReadAll(ckpt_path_));
  const int block_start =
      EditLatestRecord(&lines, "hdr", "polydab\\.ckpt\\.v1", "polydab.ckpt.v9");
  ASSERT_GE(block_start, 0);
  ResealLastBlock(&lines);
  ExpectCkptError(JoinLines(lines), block_start + 1,
                  "checkpoint version skew");
}

TEST_F(RecoveryCodecTest, NonIntegralOrOutOfRangeIntegersAreNamedErrors) {
  // Resealed, so the integer decode — not the digest — rejects each.
  const std::vector<std::string> lines = SplitLines(ReadAll(ckpt_path_));
  const struct {
    const char* tag;
    const char* pattern;
    const char* replacement;
  } cases[] = {
      {"hdr", "\"tick\":60", "\"tick\":1e300"},
      {"hdr", "\"tick\":60", "\"tick\":60.5"},
      {"hdr", "\"fault\":1", "\"fault\":2"},
      {"q", "\"reg\":0", "\"reg\":-3000000000"},
      {"if", "\"de\":[0-9]+", "\"de\":-1"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.replacement);
    std::vector<std::string> edited = lines;
    const int at = EditLatestRecord(&edited, c.tag, c.pattern, c.replacement);
    ASSERT_GE(at, 0);
    ResealLastBlock(&edited);
    ExpectCkptError(JoinLines(edited), at + 1, "is not an integer in range");
  }
}

TEST_F(RecoveryCodecTest, BadHistogramBucketsAreNamedErrors) {
  // Resealed histogram records whose bucket tokens do not parse, or name
  // a bucket outside the histogram: the loader must refuse them (the
  // restore would otherwise index past the bucket array).
  const std::vector<std::string> lines = SplitLines(ReadAll(ckpt_path_));
  const struct {
    const char* bucket;
    const char* needle;
  } cases[] = {
      {"x:1", "bad integer token 'x'"},
      {"99999999999:1", "histogram bucket index 99999999999 out of range"},
      {"256:1", "histogram bucket index 256 out of range"},
      {"-1:1", "histogram bucket index -1 out of range"},
      {"3:y", "bad integer token 'y'"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.bucket);
    std::vector<std::string> edited = lines;
    const int at = EditLatestRecord(&edited, "reg", "\"b\":\"",
                                    std::string("\"b\":\"") + c.bucket + " ");
    ASSERT_GE(at, 0);
    ResealLastBlock(&edited);
    ExpectCkptError(JoinLines(edited), at + 1, c.needle);
  }
}

TEST_F(RecoveryCodecTest, ResealedSnapshotRestartsWhenUnchanged) {
  // Control for the rejections below: the edit-and-reseal path itself
  // yields a snapshot the restart accepts.
  const Status s =
      RestartFromEditedSnapshot("hdr", "\"tick\":46", "\"tick\":46");
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST_F(RecoveryCodecTest, RestartRejectsItemQuerySlotOutOfRange) {
  ExpectRestartRejects("iq", "\"q\":\"[0-9]+", "\"q\":\"99",
                       "references query slot 99");
}

TEST_F(RecoveryCodecTest, RestartRejectsItemLaneOutOfRange) {
  ExpectRestartRejects("iq", "\"s\":\"[0-9]+", "\"s\":\"7",
                       "lane 7 out of range");
}

TEST_F(RecoveryCodecTest, RestartRejectsHomeLaneOutOfRange) {
  ExpectRestartRejects("items", "\"home\":\"-?[0-9]+", "\"home\":\"5",
                       "home lane 5 out of range");
}

TEST_F(RecoveryCodecTest, RestartRejectsQueryLaneOutOfRange) {
  ExpectRestartRejects("q", "\"shard\":[0-9]+", "\"shard\":3",
                       "query slot 0 lane 3 out of range");
}

TEST_F(RecoveryCodecTest, RestartRejectsPartItemOutOfRange) {
  ExpectRestartRejects("part", "\"vars\":\"[0-9]+", "\"vars\":\"99",
                       "references item 99 out of range");
}

TEST_F(RecoveryCodecTest, RestartRejectsEventKindOutOfRange) {
  ExpectRestartRejects("ev", "\"k\":[0-9]+", "\"k\":9",
                       "event kind 9 out of range");
}

TEST_F(RecoveryCodecTest, RestartRejectsEventItemOutOfRange) {
  ExpectRestartRejects("ev", "\"item\":-?[0-9]+", "\"item\":999",
                       "names item/source 999 out of range");
}

TEST_F(RecoveryCodecTest, RestartRejectsEventArrayOutOfHeapOrder) {
  // The heap's root is its earliest message; a later root breaks the
  // order every pop relies on.
  ExpectRestartRejects("ev", "\"time\":[-0-9.e+]+", "\"time\":1e9",
                       "event array is not heap-ordered");
}

TEST_F(RecoveryCodecTest, RestartRejectsSourceIdOutOfOrder) {
  ExpectRestartRejects("src", "\"i\":0", "\"i\":1",
                       "source records out of order");
}

TEST_F(RecoveryCodecTest, RestartRejectsItemFaultIdOutOfOrder) {
  ExpectRestartRejects("if", "\"i\":0", "\"i\":5",
                       "item-fault records out of order");
}

TEST_F(RecoveryCodecTest, RestartRejectsInstrumentKindClash) {
  // The restart's registry already holds this counter.
  ExpectRestartRejects("reg",
                       "\"k\":\"c\",\"name\":\"sim\\.coordinator\\.refreshes\"",
                       "\"k\":\"g\",\"name\":\"sim.coordinator.refreshes\"",
                       "clashes with the registry");
}

TEST_F(RecoveryCodecTest, RestartRejectsInstrumentNamedTwiceWithTwoKinds) {
  // The fixture gauge takes a counter's name.
  ExpectRestartRejects("reg", "\"name\":\"test\\.fixture\\.gauge\"",
                       "\"name\":\"sim.coordinator.refreshes\"",
                       "appears twice with different kinds");
}

TEST_F(RecoveryCodecTest, WalRoundTripsEveryRecordKind) {
  const std::string path = ::testing::TempDir() + "recovery_codec_rt.wal";
  std::remove(path.c_str());
  std::FILE* f = std::fopen(path.c_str(), "a");
  ASSERT_NE(f, nullptr);
  using Kind = WalRecord::Kind;
  AppendWal(f, {});
  AppendWal(f, {.kind = Kind::kRow, .tick = 7, .values = {1.5, 2.25}});
  AppendWal(f, {.kind = Kind::kAck, .time = 6.125, .item = 3, .seq = 41});
  AppendWal(f, {.kind = Kind::kChurn,
                .tick = 8,
                .op = "register",
                .query_id = 12});
  AppendWal(f, {.kind = Kind::kCrash, .tick = 9, .event_id = 777,
                .cause = 555});
  std::fclose(f);

  std::vector<WalRecord> records;
  ASSERT_TRUE(LoadWal(path, &records).ok());
  std::remove(path.c_str());
  // Header lines are consumed by the loader, not returned as records.
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].kind, WalRecord::Kind::kRow);
  EXPECT_EQ(records[0].tick, 7);
  ASSERT_EQ(records[0].values.size(), 2u);
  EXPECT_EQ(records[0].values[0], 1.5);
  EXPECT_EQ(records[0].values[1], 2.25);
  EXPECT_EQ(records[1].kind, WalRecord::Kind::kAck);
  EXPECT_EQ(records[1].time, 6.125);
  EXPECT_EQ(records[1].item, 3);
  EXPECT_EQ(records[1].seq, 41);
  EXPECT_EQ(records[2].kind, WalRecord::Kind::kChurn);
  EXPECT_EQ(records[2].op, "register");
  EXPECT_EQ(records[2].query_id, 12);
  EXPECT_EQ(records[3].kind, WalRecord::Kind::kCrash);
  EXPECT_EQ(records[3].tick, 9);
  EXPECT_EQ(records[3].event_id, 777u);
  EXPECT_EQ(records[3].cause, 555u);
  EXPECT_EQ(LastCrashMarker(records), &records[3]);
}

TEST_F(RecoveryCodecTest, WalWithoutCrashMarkerHasNoMarker) {
  std::vector<WalRecord> records;
  ASSERT_TRUE(LoadWal(wal_path_, &records).ok());
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(LastCrashMarker(records), nullptr);  // the run ended cleanly
}

TEST_F(RecoveryCodecTest, WalCorruptionIsNamedError) {
  std::string text = ReadAll(wal_path_);
  const std::vector<std::string> lines = SplitLines(text);
  const int n = static_cast<int>(lines.size());

  std::string truncated = text;
  truncated.resize(truncated.size() - 4);
  ExpectWalError(truncated, n, "truncated record at end of file");

  std::vector<std::string> skewed = lines;
  const size_t at = skewed[0].find("polydab.wal.v1");
  ASSERT_NE(at, std::string::npos);
  skewed[0].replace(at, 14, "polydab.wal.v9");
  ExpectWalError(JoinLines(skewed), 1, "wal version skew");

  std::vector<std::string> unknown = lines;
  ASSERT_NE(unknown[1].find("\"w\":\"row\""), std::string::npos);
  unknown[1].insert(unknown[1].find("\"tick\""), "\"zzz\":2,");
  ExpectWalError(JoinLines(unknown), 2, "unknown key 'zzz'");
}

TEST_F(RecoveryCodecTest, ServiceStateRestoreIsStrict) {
  svc::AdmissionConfig ac;
  std::vector<workload::ChurnOp> empty_schedule;
  svc::QueryService service(ac, empty_schedule, nullptr,
                            sim::PlanMaintenance::kIncremental);
  const std::string state = service.SnapshotState();
  ASSERT_NE(state.find("polydab.svcstate.v1"), std::string::npos);
  EXPECT_TRUE(service.RestoreState(state).ok());

  std::string skewed = state;
  skewed.replace(skewed.find("polydab.svcstate.v1"), 19,
                 "polydab.svcstate.v9");
  Status bad = service.RestoreState(skewed);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.ToString().find("version"), std::string::npos)
      << bad.ToString();
}

}  // namespace
}  // namespace polydab::recovery
