/// \file job.hpp
/// \brief Job specifications for the sweep server: parse a JSON job into a
///        runnable, cache-keyed unit of work.
///
/// A job names either one of the paper workloads (`mmul`, `zoom`,
/// `bitcnt` — with a small `ci` and a full `paper` scale preset each, and
/// per-parameter overrides) or a raw DTA assembly program (`asm`, inline
/// text or a file path).  Machine shape overrides mirror dta_run's flags.
/// Optionally a job warm-starts from a `.dtasnap` snapshot instead of
/// launching fresh — PR `checkpoint/restore` guarantees the resumed run's
/// report is byte-identical to a cold run, so warm and cold runs share one
/// cache key.
///
/// The cache key is FNV-1a 64 over: a format tag, the structural config
/// fingerprint (core/machine.hpp), the workload name and prefetch flag,
/// every workload parameter that shapes the memory image, and the entry
/// arguments.  Observer knobs (checkpointing) are excluded: they never
/// change the report bytes.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/machine.hpp"
#include "stats/json_value.hpp"

namespace dta::serve {

/// A job parsed and bound to a config + program, ready to run.
struct PreparedJob {
    std::string id;    ///< echo'd in the reply meta
    std::string name;  ///< report benchmark label
    std::uint64_t key = 0;
    core::MachineConfig cfg;
    isa::Program prog;
    /// Places input data and launches (or restores) the machine.
    std::function<void(core::Machine&)> setup;
    /// Output check against the host reference; null for asm jobs.
    std::function<bool(const mem::MainMemory&, std::string*)> check;
    bool warm_start = false;  ///< setup restores from a snapshot
    /// Periodic snapshots during the run (result-neutral; key-excluded).
    sim::Cycle checkpoint_every = 0;
    std::string checkpoint_prefix;
};

/// A finished job.
struct JobResult {
    bool ok = false;
    std::string error;   ///< one line when !ok
    std::string report;  ///< raw stats::run_report_json bytes when ok
    std::uint64_t cycles = 0;
};

/// Parses one JSON job object into a PreparedJob.  On failure returns
/// false with a one-line reason (unknown workload, bad parameter, missing
/// program...).
[[nodiscard]] bool prepare_job(const stats::JsonValue& spec,
                               PreparedJob& out, std::string& error);

/// Runs a prepared job to completion.  Machine-level failures (deadlock,
/// bad snapshot, impossible shape) come back as ok=false with the
/// SimError line — the server must outlive any job.
[[nodiscard]] JobResult run_job(const PreparedJob& job);

}  // namespace dta::serve
