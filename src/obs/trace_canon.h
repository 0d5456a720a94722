#ifndef POLYDAB_OBS_TRACE_CANON_H_
#define POLYDAB_OBS_TRACE_CANON_H_

#include "common/status.h"
#include "obs/trace.h"

/// \file trace_canon.h
/// Canonicalization of a crashed-and-restarted run's merged trace
/// (docs/RECOVERY.md).

namespace polydab::obs {

/// Remove the crash-recovery bookkeeping events (checkpoint_begin,
/// checkpoint_end, coord_crash, recovery_replay) from \p trace, renumber
/// the survivors 1..N in order, and remap their cause references
/// (docs/RECOVERY.md). Recovery events only ever cite other recovery
/// events, so the remap never dangles on a well-formed trace; a surviving
/// event citing a removed one is InvalidArgument. After this pass, a
/// crashed-and-restarted run's merged trace is byte-identical
/// (TraceToJsonLines) to the uninterrupted oracle's — the property
/// tests/recovery_diff_test.cc pins. No-op (beyond the defensive id sort)
/// when the trace has no recovery events.
Status StripRecoveryEvents(TraceFile* trace);

}  // namespace polydab::obs

#endif  // POLYDAB_OBS_TRACE_CANON_H_
