/// \file machine.hpp
/// \brief The whole simulated machine: nodes of PEs, the distributed
///        scheduler, the bus fabric(s), the memory controller, and the run
///        loop (Fig. 2 of the paper).
///
/// Every timed part of the machine is a sim::Component registered in one
/// scheduler list; wiring between them is declared once at construction as
/// typed sim::Port bindings.  The run loop is the event-driven timing wheel
/// (sim/wheel.hpp): each component is visited only at its declared horizon
/// or when inbound traffic wakes it, cycle-exact with a dense loop that
/// ticks everything every cycle (kept as the test oracle; see
/// docs/ARCHITECTURE.md).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/breakdown.hpp"
#include "core/config.hpp"
#include "core/mem_interface.hpp"
#include "core/node_router.hpp"
#include "core/pe.hpp"
#include "core/trace.hpp"
#include "core/topology.hpp"
#include "isa/program.hpp"
#include "mem/main_memory.hpp"
#include "noc/interconnect.hpp"
#include "noc/link.hpp"
#include "sched/dse.hpp"
#include "sim/audit.hpp"
#include "sim/component.hpp"
#include "sim/log.hpp"
#include "sim/metrics.hpp"
#include "sim/telemetry.hpp"
#include "sim/wheel.hpp"

namespace dta::core {

/// Per-PE slice of a run's results.
struct PeReport {
    Breakdown breakdown;
    InstrStats instrs;
    std::uint64_t issue_slots_used = 0;
    std::uint64_t cycles_with_issue = 0;
    std::uint64_t threads_executed = 0;
    sched::LseStats lse;
};

/// Everything a finished simulation reports.
struct RunResult {
    sim::Cycle cycles = 0;
    std::vector<PeReport> pes;

    // fabric / memory / scheduler aggregates
    noc::InterconnectStats noc;
    std::uint64_t mem_reads = 0;
    std::uint64_t mem_writes = 0;
    std::uint64_t mem_bytes_read = 0;
    std::uint64_t mem_bytes_written = 0;
    std::size_t mem_peak_queue = 0;
    std::uint64_t dma_commands = 0;
    std::uint64_t dma_bytes = 0;
    std::uint64_t dse_requests = 0;
    std::uint64_t dse_queued = 0;
    std::size_t dse_peak_pending = 0;

    /// Per-thread-code profile (always collected; cheap counters).
    std::vector<CodeProfile> profile;
    /// SPU occupancy spans (only when MachineConfig::capture_spans).
    std::vector<ThreadSpan> spans;
    /// Thread-code names, aligned with span code ids (for trace rendering).
    std::vector<std::string> code_names;
    /// Run-wide histograms and counters (populated only when
    /// MachineConfig::collect_metrics; otherwise disabled and empty).
    sim::MetricsRegistry metrics;
    /// One span per completed DMA command (only with collect_metrics).
    std::vector<dma::DmaSpan> dma_spans;
    /// Thread-lifecycle event log in canonical (cycle, ordinal) order (only
    /// when MachineConfig::collect_events; otherwise empty).
    sim::EventLog events;
    /// Host-time profile per (component, phase) of the wheel run loop (only
    /// when MachineConfig::profile; otherwise disabled and empty).  Its one
    /// row group is named "shard0", the report schema's single shard.
    /// Host-side only: every other RunResult field is byte-identical with
    /// profiling on or off.
    sim::HostProfile host_profile;
    /// Event-driven scheduler behaviour (only when MachineConfig::use_wheel;
    /// otherwise disabled and empty).  Host-side only, like host_profile:
    /// excluded from the JSON run report and every byte-identity comparison
    /// — the simulated results are byte-identical with the wheel on or off.
    sim::WheelStats wheel;
    /// Live-telemetry timeline (only when MachineConfig::telemetry.enabled;
    /// otherwise disabled and empty).  The frames' simulated fields are
    /// deterministic — byte-identical with the wheel on or off — and are
    /// serialised into the JSON report's `telemetry`
    /// section; the host-side frame tail (host_ns, wheel_*) rides only the
    /// NDJSON stream, exactly like RunResult::wheel.
    sim::TelemetryResult telemetry;

    [[nodiscard]] Breakdown total_breakdown() const;
    [[nodiscard]] InstrStats total_instrs() const;
    /// Fig. 9 metric: fraction of SPU cycles with at least one issue.
    [[nodiscard]] double pipeline_usage() const;
    /// Stricter usage: issue slots used over 2-wide capacity.
    [[nodiscard]] double slot_utilisation() const;
};

/// Serialises the structural parts of a machine description — everything
/// that shapes what the machine *is* (shape, latencies, engine layouts)
/// plus a digest of the loaded program — into \p s.
/// Shared by Machine snapshots (the snapshot's `config` section and its
/// fingerprint) and the serve result cache (docs/SERVING.md), which keys
/// memoized runs on the same bytes.  Observer knobs (log level, audits,
/// profiling, telemetry, the wheel) are deliberately excluded.
void structural_config_echo(sim::StateSink& s, const MachineConfig& cfg,
                            const isa::Program& prog);

/// FNV-1a 64 over structural_config_echo's bytes.  Equals
/// Machine::config_fingerprint() for a machine built from (cfg, prog).
[[nodiscard]] std::uint64_t structural_fingerprint(const MachineConfig& cfg,
                                                   const isa::Program& prog);

/// A complete DTA machine.
class Machine {
public:
    /// Validates \p prog and builds the machine; both are copied so the
    /// caller's objects may go away.  Throws sim::SimError on an invalid
    /// config (including any host_threads other than 1).
    Machine(MachineConfig cfg, isa::Program prog);

    Machine(const Machine&) = delete;
    Machine& operator=(const Machine&) = delete;

    /// Functional access to main memory for input/output data.
    [[nodiscard]] mem::MainMemory& memory() { return mem_; }
    [[nodiscard]] const mem::MainMemory& memory() const { return mem_; }
    [[nodiscard]] const isa::Program& program() const { return prog_; }
    [[nodiscard]] const MachineConfig& config() const { return cfg_; }

    /// Installs a trace sink (optional; default off).
    void set_log_sink(sim::LogLevel level, sim::Logger::Sink sink) {
        logger_.configure(level, std::move(sink));
    }

    /// Seeds the entry thread (the TLP activity the PPE offloads): a frame
    /// on PE 0 pre-filled with \p args, immediately ready.
    void launch(std::span<const std::uint64_t> args);

    /// One progress heartbeat.
    struct Progress {
        sim::Cycle cycle = 0;
        std::uint64_t live_threads = 0;
        sim::Cycle ticked = 0;   ///< cycles advanced by per-cycle ticking
        sim::Cycle skipped = 0;  ///< cycles the wheel jumped over
        /// Live-telemetry summary (zero / empty unless telemetry is on and
        /// a frame has been captured): cumulative retired instructions at
        /// the latest sample, its cycle, and the busiest component's name.
        std::uint64_t instrs_retired = 0;
        sim::Cycle sample_cycle = 0;
        std::string busiest;
    };
    /// Periodic progress callback: invoked at most once per \p interval
    /// simulated cycles.  Install before run(); null \p fn disables.
    using ProgressFn = std::function<void(const Progress&)>;
    void set_progress(sim::Cycle interval, ProgressFn fn) {
        progress_interval_ = interval;
        progress_ = std::move(fn);
    }

    /// Command prefix for the deadlock error's `--restore` replay hint
    /// (e.g. "dta_run prog.dta --spes 4"); the newest checkpoint path is
    /// appended when the detector trips.  Default "dta_run".
    void set_replay_hint(std::string prefix) {
        replay_hint_ = std::move(prefix);
    }

    /// Runs the simulation to completion and returns the statistics.
    /// Throws sim::SimError on deadlock or when max_cycles is exceeded.
    [[nodiscard]] RunResult run();

    // --- checkpoint/restore (sim/snapshot.hpp) ---------------------------
    /// FNV-1a 64 hash over the serialised structural config echo plus a
    /// digest of the loaded program.  Snapshots carry it; restore refuses a
    /// mismatch.  Observer knobs (log level, audits, profiling, telemetry,
    /// the wheel) are excluded so a snapshot can be replayed
    /// with extra instrumentation turned on — time-travel debugging.
    [[nodiscard]] std::uint64_t config_fingerprint() const;
    /// Writes a snapshot of the current (launched, not yet run — or
    /// restored) machine state to \p path.
    void checkpoint(const std::string& path);
    /// Restores machine state from \p path into this freshly built machine
    /// (before launch()/run(); restore replaces launch).  Throws SimError
    /// on a version or config-fingerprint mismatch, and runs a full
    /// invariant audit over the restored state when audits are enabled.
    void restore(const std::string& path);
    /// Arms periodic checkpoints during run(): one snapshot at every
    /// multiple of \p every cycles, at `prefix + ".c<cycle>.dtasnap"`.
    void set_checkpoints(sim::Cycle every, std::string prefix);
    /// Ends run() at exactly cycle \p cycle (state as of the cut; the
    /// machine need not be quiescent).  The partial RunResult covers
    /// [start, cycle); final quiescence audits are skipped.
    void set_stop_at(sim::Cycle cycle) { stop_at_ = cycle; }
    /// Cycle/path of the newest snapshot run() wrote (0/"" if none) — the
    /// fuzzer's bisect loop refines from here.
    [[nodiscard]] sim::Cycle last_checkpoint_cycle() const {
        return last_ckpt_cycle_;
    }
    [[nodiscard]] const std::string& last_checkpoint_path() const {
        return last_ckpt_path_;
    }
    /// First simulated cycle of this run (non-zero after restore()).
    [[nodiscard]] sim::Cycle start_cycle() const { return restore_cycle_; }

    /// The machine-wide invariant auditor (live when cfg.audit.enabled).
    /// Tests and the fuzzer may add extra checks before run() — e.g. an
    /// always-failing one to validate the failure-reporting path.
    [[nodiscard]] sim::Auditor& auditor() { return auditor_; }

    /// Component access for tests.
    [[nodiscard]] Pe& pe(sim::GlobalPeId id) { return *pes_[id]; }
    [[nodiscard]] std::uint32_t num_pes() const {
        return static_cast<std::uint32_t>(pes_.size());
    }
    [[nodiscard]] sched::Dse& dse(std::uint16_t node) { return dses_[node]; }
    /// Cycles the wheel jumped over with no component due (0 under the
    /// dense oracle).  Deliberately *not* part of RunResult: results are
    /// identical either way.
    [[nodiscard]] sim::Cycle cycles_fast_forwarded() const { return skipped_; }

private:
    /// The production run loop: visits each component only at its
    /// scheduled cycle and replays the dense loop's observable side effects
    /// (telemetry samples, deadlock checkpoints) over the jumped spans, so
    /// every RunResult byte matches run_dense()'s.
    [[nodiscard]] RunResult run_wheel();
    /// The differential oracle (use_wheel off): ticks every component on
    /// every cycle.
    [[nodiscard]] RunResult run_dense();
    /// The quiescent end of a run: final audits, event-log order, result.
    [[nodiscard]] RunResult finish(sim::Cycle now);
    /// Binds the wake hooks of every port a component consumes to the
    /// wheel, addressing each consumer by its index in components_.
    void attach_wakers();
    /// Registers the per-component invariant checks into auditor_.
    void register_audit_checks();
    /// Registers the machine-wide quiescence checks (run once after the
    /// run completes): frame supply back at the DSEs, remote-store
    /// conservation across the NoC, drained engines and fabrics.
    void register_final_checks();
    [[nodiscard]] bool check_quiescent() const;
    /// Activity fingerprint for no-progress (deadlock) detection.
    [[nodiscard]] std::uint64_t fingerprint() const;
    [[nodiscard]] std::string non_quiescent_names() const;
    /// The one stall trip path, for both the no-progress check and the
    /// wheel's idle-forever test: streams the stall to the telemetry
    /// sampler (when on), then throws one line naming the stuck
    /// components, the queue depths and, after a checkpoint, the
    /// `--restore` replay command.
    [[noreturn]] void throw_deadlock(sim::Cycle now, sim::Cycle stalled,
                                     bool idle_forever);
    /// The 0xfff-cycle no-progress check at cycle \p c against activity
    /// fingerprint \p fp.
    void check_progress(sim::Cycle c, std::uint64_t fp);
    [[nodiscard]] RunResult gather(sim::Cycle cycles) const;

    // --- checkpoint/restore internals ------------------------------------
    /// Serialises the structural config + program digest (the fingerprint
    /// input and the snapshot's self-description section).
    void config_echo(sim::StateSink& s) const;
    /// Serialises the whole machine state at \p cycle into \p path.
    void save_snapshot_file(sim::Cycle cycle, const std::string& path) const;
    /// Periodic checkpoint at a run-loop cut (derives the path from the
    /// prefix and records it for last_checkpoint_*).
    void write_snapshot(sim::Cycle cycle);
    /// Next cycle the run loop must land on exactly (checkpoint multiple or
    /// stop_at); kCycleNever when neither is armed.  Wheel jumps are
    /// clamped to it — result-neutral, skipping is accounting-identical.
    [[nodiscard]] sim::Cycle next_cut(sim::Cycle now) const;
    /// Checkpoint and stop cuts at the top of cycle \p now, before its
    /// tick: all accounting covers exactly [start, now), which is the state
    /// a restore resumes from.  Returns true when run() must end here.
    [[nodiscard]] bool at_cut(sim::Cycle now);
    /// The early-exit path of --stop-at: canonicalise what was collected
    /// and gather the partial result (no final quiescence audit).
    [[nodiscard]] RunResult stop_early(sim::Cycle cycle);
    /// The simulated fields of a telemetry frame at \p now (post-tick
    /// state): occupancy, queue depths and retired instructions.
    [[nodiscard]] sim::TelemetryFrame sample_frame(sim::Cycle now) const;
    /// Captures one machine-wide telemetry frame at \p now, with its
    /// host-side tail, and the profiler's cumulative phase totals.  No-op
    /// unless cfg_.telemetry.enabled.  Called at sample cycles (and
    /// replayed over the wheel's jumped spans).
    void capture_telemetry(sim::Cycle now);
    /// The per-cycle observers both run loops share after ticking \p now:
    /// telemetry samples, audits and the progress heartbeat.
    void observe_cycle(sim::Cycle now, std::uint64_t& prof_t);
    /// Fires progress_ if \p now crossed the next reporting threshold.
    void report_progress(sim::Cycle now);
    /// The profiler buffer, or nullptr when cfg_.profile is off.  Only the
    /// wheel loop is profiled: the dense oracle never charges a phase.
    [[nodiscard]] sim::ProfBuffer* prof() {
        return cfg_.profile && cfg_.use_wheel ? &prof_ : nullptr;
    }

    MachineConfig cfg_;
    isa::Program prog_;
    sched::Topology topo_;
    FabricLayout layout_;
    sim::Logger logger_;

    mem::MainMemory mem_;
    std::vector<noc::Interconnect> fabrics_;  ///< one per node
    std::vector<noc::Link> links_;            ///< ring: node i -> (i+1)%n
    std::vector<std::unique_ptr<Pe>> pes_;
    std::vector<sched::Dse> dses_;
    std::unique_ptr<MemInterface> memif_;             ///< node 0
    std::vector<std::unique_ptr<NodeRouter>> routers_;  ///< one per node

    /// Scheduler order: fabrics, DSEs, memif, PEs, routers — the exact
    /// dependency order of the seed's hand-rolled tick_cycle.
    std::vector<sim::Component*> components_;
    sim::Cycle skipped_ = 0;
    sim::WheelScheduler wheel_;  ///< attached only when cfg_.use_wheel

    std::vector<ThreadSpan> spans_;  ///< filled when cfg_.capture_spans

    // event log (live only when cfg_.collect_events)
    sim::EventLog events_;

    // progress reporting (live only when set_progress installed a callback)
    ProgressFn progress_;
    sim::Cycle progress_interval_ = 0;
    sim::Cycle next_progress_ = 0;

    // no-progress (deadlock) detection at every cycle ending in 0xfff
    std::uint64_t last_fp_ = ~0ull;  ///< fingerprint at the last check
    sim::Cycle last_progress_ = 0;   ///< check cycle that saw it change

    // invariant audits (live only when cfg_.audit.enabled)
    sim::Auditor auditor_;  ///< per-component checks + final checks
    sim::Cycle audit_interval_ = 0;  ///< 0 = audits off

    // host-time profiler (live only when cfg_.profile; see prof())
    sim::ProfBuffer prof_;
    std::uint64_t prof_wall0_ = 0;  ///< host clock at the wheel loop's start

    // live telemetry (live only when cfg_.telemetry.enabled; off = one
    // null check at the run loops' sample sites)
    std::unique_ptr<sim::TelemetrySampler> telemetry_;
    // Next cycle owed a telemetry frame (always a multiple of the
    // interval).  capture_telemetry advances it, so the hot sample sites
    // test equality instead of a per-cycle 64-bit modulo, and the wheel's
    // replay over jumped spans walks it directly with no alignment
    // division.
    sim::Cycle telemetry_next_ = 0;

    // metrics (live only when cfg_.collect_metrics)
    sim::MetricsRegistry metrics_;
    std::vector<dma::DmaSpan> dma_spans_;

    bool launched_ = false;
    bool ran_ = false;

    // --- checkpoint/restore state ----------------------------------------
    sim::Cycle restore_cycle_ = 0;      ///< run starts here after restore()
    sim::Cycle checkpoint_every_ = 0;   ///< 0 = periodic checkpoints off
    std::string checkpoint_prefix_;
    sim::Cycle stop_at_ = 0;            ///< 0 = run to quiescence
    sim::Cycle last_ckpt_cycle_ = 0;
    std::string last_ckpt_path_;
    /// Command prefix for the deadlock error's replay hint; the newest
    /// checkpoint path is appended at stall time.
    std::string replay_hint_ = "dta_run";
};

}  // namespace dta::core
