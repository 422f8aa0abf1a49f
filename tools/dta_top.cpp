/// \file dta_top.cpp
/// \brief Live telemetry viewer: tails the NDJSON stream `dta_run
///        --telemetry-fifo` writes and renders a top(1)-style view —
///        occupancy bars, the busiest queues ranked, the retire rate, and
///        (given a horizon) an ETA.
///
/// Usage:
///   mkfifo /tmp/t && dta_run prog.dta --telemetry-fifo /tmp/t &
///   dta_top /tmp/t
///
///   dta_top [PATH|-] [options]      PATH default "-" (stdin)
///     --once          read to EOF and render one plain (no ANSI) screen —
///                     the mode the ctest smoke and scripts use
///     --horizon N     cycle count to ETA against (e.g. the run's
///                     --max-cycles or an expected total)
///     --top K         rows in the busiest-queue ranking (default 5)
///
/// The stream is self-describing NDJSON (one flat JSON object per line,
/// see docs/OBSERVABILITY.md): `"type":"frame"` carries the machine-wide
/// sample, `"type":"stall"` the deadlock detector's verdict.  Parsing is a flat
/// key scan — no JSON dependency, mirroring stats/json_report's
/// validator-not-parser stance.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "cli_util.hpp"

namespace {

struct Options {
    std::string path = "-";
    bool once = false;
    std::uint64_t horizon = 0;
    std::size_t top = 5;
};

[[noreturn]] void usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s [PATH|-] [--once] [--horizon N] [--top K]\n",
                 argv0);
    std::exit(2);
}

Options parse_options(int argc, char** argv) {
    Options opt;
    bool have_path = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto next = [&]() -> const char* {
            if (i + 1 >= argc) {
                usage(argv[0]);
            }
            return argv[++i];
        };
        if (a == "--once") {
            opt.once = true;
        } else if (a == "--horizon") {
            opt.horizon =
                dta::cli::parse_u64(argv[0], "--horizon", next(), 1);
        } else if (a == "--top") {
            opt.top = dta::cli::parse_uint<std::size_t>(argv[0], "--top",
                                                        next(), 1);
        } else if (!a.empty() && a[0] == '-' && a != "-") {
            std::fprintf(stderr, "unknown option '%s'\n", a.c_str());
            usage(argv[0]);
        } else if (!have_path) {
            opt.path = a;
            have_path = true;
        } else {
            usage(argv[0]);
        }
    }
    return opt;
}

/// Extracts `"key":<number>` from a flat NDJSON object; false if absent.
bool field_u64(const std::string& line, const char* key,
               std::uint64_t& out) {
    const std::string needle = std::string("\"") + key + "\":";
    const std::size_t at = line.find(needle);
    if (at == std::string::npos) {
        return false;
    }
    out = std::strtoull(line.c_str() + at + needle.size(), nullptr, 10);
    return true;
}

/// Extracts `"key":"value"` (undoing the stream's minimal escaping).
std::string field_str(const std::string& line, const char* key) {
    const std::string needle = std::string("\"") + key + "\":\"";
    const std::size_t at = line.find(needle);
    if (at == std::string::npos) {
        return "";
    }
    std::string out;
    for (std::size_t i = at + needle.size(); i < line.size(); ++i) {
        if (line[i] == '\\' && i + 1 < line.size()) {
            ++i;
            out += line[i] == 'n' ? '\n' : line[i];
        } else if (line[i] == '"') {
            break;
        } else {
            out += line[i];
        }
    }
    return out;
}

struct Frame {
    std::uint64_t cycle = 0;
    std::uint64_t running = 0;
    std::uint64_t ready = 0;
    std::uint64_t waitdma = 0;
    std::uint64_t frames_live = 0;
    std::uint64_t mfc_commands = 0;
    std::uint64_t dma_bytes = 0;
    std::uint64_t mem_queue = 0;
    std::uint64_t noc_pending = 0;
    std::uint64_t instrs_retired = 0;
    std::uint64_t host_ns = 0;
    std::uint64_t wheel_armed = 0;
};

/// Everything the view needs: the latest frame, per-field observed maxima
/// (the bars' scale), rate anchors, and the stall line if one arrived.
struct View {
    Frame cur;
    Frame prev;
    std::uint64_t frames_seen = 0;
    std::uint64_t max_running = 1;
    std::uint64_t max_ready = 1;
    std::uint64_t max_waitdma = 1;
    std::uint64_t max_frames = 1;
    std::uint64_t max_mfc = 1;
    std::uint64_t max_dma = 1;
    std::uint64_t max_mem = 1;
    std::uint64_t max_noc = 1;
    std::string stall;  ///< formatted stall notice ("" = none)

    void ingest(const Frame& f) {
        prev = cur;
        cur = f;
        ++frames_seen;
        max_running = std::max(max_running, f.running);
        max_ready = std::max(max_ready, f.ready);
        max_waitdma = std::max(max_waitdma, f.waitdma);
        max_frames = std::max(max_frames, f.frames_live);
        max_mfc = std::max(max_mfc, f.mfc_commands);
        max_dma = std::max(max_dma, f.dma_bytes);
        max_mem = std::max(max_mem, f.mem_queue);
        max_noc = std::max(max_noc, f.noc_pending);
    }
};

std::string bar(std::uint64_t value, std::uint64_t max, int width = 30) {
    const int fill =
        max == 0 ? 0
                 : static_cast<int>(value * static_cast<std::uint64_t>(width) /
                                    max);
    std::string s(static_cast<std::size_t>(fill), '#');
    s.resize(static_cast<std::size_t>(width), '.');
    return s;
}

void render(const View& v, const Options& opt, bool ansi) {
    const Frame& f = v.cur;
    if (ansi) {
        std::fputs("\x1b[H\x1b[2J", stdout);  // home + clear
    }
    std::printf("dta_top — cycle %llu (%llu frames)\n",
                static_cast<unsigned long long>(f.cycle),
                static_cast<unsigned long long>(v.frames_seen));

    // Rates over the last sample interval: simulated retire rate always;
    // host throughput and ETA only when the host clock advanced.
    const std::uint64_t dc = f.cycle - v.prev.cycle;
    if (v.frames_seen > 1 && dc > 0) {
        const double retire =
            static_cast<double>(f.instrs_retired - v.prev.instrs_retired) /
            static_cast<double>(dc);
        std::printf("rate: %.3f instrs/cycle", retire);
        if (f.host_ns > v.prev.host_ns) {
            const double mcps =
                static_cast<double>(dc) * 1e3 /
                static_cast<double>(f.host_ns - v.prev.host_ns);
            std::printf(", %.2f Mcycles/s", mcps);
            if (opt.horizon > f.cycle) {
                std::printf(", eta <= %.0f s",
                            static_cast<double>(opt.horizon - f.cycle) /
                                (mcps * 1e6));
            }
        }
        std::puts("");
    }
    std::puts("");

    struct Row {
        const char* name;
        std::uint64_t value;
        std::uint64_t max;
    };
    const Row rows[] = {
        {"spus running ", f.running, v.max_running},
        {"ready queue  ", f.ready, v.max_ready},
        {"wait-dma     ", f.waitdma, v.max_waitdma},
        {"frames live  ", f.frames_live, v.max_frames},
        {"mfc commands ", f.mfc_commands, v.max_mfc},
        {"dma bytes    ", f.dma_bytes, v.max_dma},
        {"mem queue    ", f.mem_queue, v.max_mem},
        {"noc pending  ", f.noc_pending, v.max_noc},
    };
    for (const Row& r : rows) {
        std::printf("%s [%s] %llu\n", r.name, bar(r.value, r.max).c_str(),
                    static_cast<unsigned long long>(r.value));
    }
    std::puts("");

    // Busiest queues, ranked by occupancy relative to each one's own
    // observed peak — the telemetry stream is machine-wide, so the ranking
    // is over subsystems, not individual components (the deadlock stall
    // line is what names components).
    std::vector<Row> rank(std::begin(rows) + 1, std::end(rows));
    std::stable_sort(rank.begin(), rank.end(), [](const Row& a, const Row& b) {
        return a.value * b.max > b.value * a.max;
    });
    std::printf("busiest:");
    for (std::size_t i = 0; i < rank.size() && i < opt.top; ++i) {
        std::printf(" %s(%llu)",
                    std::string(rank[i].name,
                                std::strcspn(rank[i].name, " "))
                        .c_str(),
                    static_cast<unsigned long long>(rank[i].value));
    }
    std::puts("");
    if (f.wheel_armed > 0) {
        std::printf("wheel: %llu components armed\n",
                    static_cast<unsigned long long>(f.wheel_armed));
    }
    if (!v.stall.empty()) {
        std::printf("\nSTALL: %s\n", v.stall.c_str());
    }
    std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
    const Options opt = parse_options(argc, argv);
    std::FILE* in = stdin;
    if (opt.path != "-") {
        // Opening a FIFO for reading blocks until the writer opens it —
        // pairing with the sampler's blocking open on the other side.
        in = std::fopen(opt.path.c_str(), "r");
        if (in == nullptr) {
            std::fprintf(stderr, "cannot open '%s'\n", opt.path.c_str());
            return 1;
        }
    }

    View v;
    const bool ansi = !opt.once;
    char buf[1024];
    while (std::fgets(buf, sizeof buf, in) != nullptr) {
        const std::string line(buf);
        if (line.find("\"type\":\"frame\"") != std::string::npos) {
            Frame f;
            field_u64(line, "cycle", f.cycle);
            field_u64(line, "running", f.running);
            field_u64(line, "ready", f.ready);
            field_u64(line, "waitdma", f.waitdma);
            field_u64(line, "frames_live", f.frames_live);
            field_u64(line, "mfc_commands", f.mfc_commands);
            field_u64(line, "dma_bytes", f.dma_bytes);
            field_u64(line, "mem_queue", f.mem_queue);
            field_u64(line, "noc_pending", f.noc_pending);
            field_u64(line, "instrs_retired", f.instrs_retired);
            field_u64(line, "host_ns", f.host_ns);
            field_u64(line, "wheel_armed", f.wheel_armed);
            v.ingest(f);
            if (!opt.once) {
                render(v, opt, ansi);
            }
        } else if (line.find("\"type\":\"stall\"") != std::string::npos) {
            std::uint64_t cycle = 0;
            std::uint64_t stalled_cycles = 0;
            field_u64(line, "cycle", cycle);
            field_u64(line, "stalled_cycles", stalled_cycles);
            v.stall = "deadlock at cycle " + std::to_string(cycle);
            if (stalled_cycles != 0) {
                v.stall += " (no progress for " +
                           std::to_string(stalled_cycles) + " cycles)";
            }
            v.stall += "; stuck: " + field_str(line, "components");
            const std::string replay = field_str(line, "replay");
            if (!replay.empty()) {
                v.stall += "\nreplay: " + replay;
            }
            if (!opt.once) {
                render(v, opt, ansi);
            }
        }
    }
    if (in != stdin) {
        std::fclose(in);
    }
    if (v.frames_seen == 0) {
        std::printf("dta_top: no frames\n");
        return 0;
    }
    if (opt.once) {
        render(v, opt, /*ansi=*/false);
    }
    std::printf("dta_top: %llu frames, last cycle %llu\n",
                static_cast<unsigned long long>(v.frames_seen),
                static_cast<unsigned long long>(v.cur.cycle));
    return 0;
}
