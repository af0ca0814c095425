/**
 * @file
 * Time-to-estimate benchmark: how long the library takes from "ask
 * for an estimate" to "estimate in hand", over the quick suite.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             --pins <file> --store-root <dir> [--pin]
 *
 * One process runs one workload. Set-up (specs, stream lengths and,
 * for anytime_warm, the filled store) is timed on its own and kept
 * outside the clock. The suite is then estimated again and again for
 * --seconds, each estimate on the next CPU in turn, and each
 * benchmark's fastest pass is reported. Every estimate is checked:
 * against the pinned fingerprints at the default seed, against the
 * first pass at any seed, and against the other anytime path. With
 * --trace 1, untraced and traced passes alternate and the per-layer
 * metrics come from the traced ones. The last line of stdout is one JSON object.
 * README.md beside this file documents the workloads and metrics.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/checkpoint_store.hh"
#include "core/livepoint.hh"
#include "core/multi_session.hh"
#include "core/procedure.hh"
#include "core/reference.hh"
#include "core/sampler.hh"
#include "core/session.hh"
#include "exec/thread_pool.hh"
#include "stats/confidence.hh"
#include "uarch/config.hh"
#include "util/binary_io.hh"
#include "util/rng.hh"
#include "workloads/benchmark.hh"

#include "trace.hh"

namespace fs = std::filesystem;
using namespace smarts;

namespace perfbench {
namespace {

constexpr workloads::Scale kScale = workloads::Scale::Small;
constexpr std::uint64_t kDefaultSeed = 1;
constexpr std::uint64_t kUnitSize = 1000;
constexpr std::uint64_t kInitialUnits = 250; ///< nInit.
constexpr std::size_t kMinSetups = 3;
constexpr double kMinSetupSeconds = 3.0;
/** Passes until there are this many, as long as the next one is
 *  expected to end within kMaxMeasureFactor * --seconds; four passes
 *  put every benchmark on four CPUs (see CpuRotation). */
constexpr std::size_t kMinPasses = 4;
constexpr double kMaxMeasureFactor = 3.0;

enum class Kind
{
    TwopassCold,
    AnytimeWarm,
    AnytimeCold,
    MatchedSweep,
};

struct WorkloadName
{
    const char *name;
    Kind kind;
};

constexpr WorkloadName kWorkloads[] = {
    {"twopass_cold", Kind::TwopassCold},
    {"anytime_warm", Kind::AnytimeWarm},
    {"anytime_cold", Kind::AnytimeCold},
    {"matched_sweep", Kind::MatchedSweep},
};

struct Options
{
    std::string workload;
    Kind kind = Kind::TwopassCold;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    bool pin = false;
    std::string pinsPath;
    std::string storeRoot;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<twopass_cold|anytime_warm|anytime_cold|"
                 "matched_sweep> --seed <n> --seconds <s> --trace "
                 "<0|1> --pins <file> --store-root <dir> [--pin]\n",
                 why.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--pin") {
            opt.pin = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            for (const WorkloadName &w : kWorkloads)
                if (value == w.name) {
                    opt.workload = w.name;
                    opt.kind = w.kind;
                    haveWorkload = true;
                }
            if (!haveWorkload)
                usage("unknown workload '" + value + "'");
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end)
                usage("bad --seed '" + value + "'");
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end || !(opt.seconds > 0.0))
                usage("bad --seconds '" + value + "'");
        } else if (arg == "--trace") {
            if (value != "0" && value != "1")
                usage("bad --trace '" + value + "'");
            opt.trace = value == "1";
        } else if (arg == "--pins") {
            opt.pinsPath = value;
        } else if (arg == "--store-root") {
            opt.storeRoot = value;
        } else {
            usage("unknown flag " + arg);
        }
    }
    if (!haveWorkload)
        usage("--workload is required");
    if (opt.pinsPath.empty() || opt.storeRoot.empty())
        usage("--pins and --store-root are required");
    return opt;
}

// ---------------------------------------------------------------
// The suite, the machines and the sampling designs.
// ---------------------------------------------------------------

const uarch::MachineConfig &
eightWay()
{
    static const uarch::MachineConfig config =
        uarch::MachineConfig::eightWay();
    return config;
}

const uarch::MachineConfig &
sixteenWay()
{
    static const uarch::MachineConfig config =
        uarch::MachineConfig::sixteenWay();
    return config;
}

std::vector<uarch::MachineConfig>
machinesOf(Kind kind)
{
    if (kind == Kind::MatchedSweep)
        return {eightWay(), sixteenWay()};
    return {eightWay()};
}

/** The paper's recipe with nInit = 250; W = 2000 for the 8-way
 *  machine, 4000 when the 16-way machine shares the stream. */
core::ProcedureConfig
procedureFor(Kind kind)
{
    core::ProcedureConfig pc;
    pc.unitSize = kUnitSize;
    pc.detailedWarming = kind == Kind::MatchedSweep ? 4000 : 2000;
    pc.warming = core::WarmingMode::Functional;
    pc.nInit = kInitialUnits;
    return pc;
}

/** The initial-pass design every procedure entry point derives. */
core::SamplingConfig
initialDesign(const core::ProcedureConfig &pc, std::uint64_t length)
{
    core::SamplingConfig sc;
    sc.unitSize = pc.unitSize;
    sc.detailedWarming = pc.detailedWarming;
    sc.warming = pc.warming;
    sc.interval = core::SamplingConfig::chooseInterval(
        length, pc.unitSize, pc.nInit);
    return sc;
}

/** The quick suite with each spec seed perturbed by @p seed. */
std::vector<workloads::BenchmarkSpec>
suiteFor(std::uint64_t seed)
{
    std::vector<workloads::BenchmarkSpec> suite =
        workloads::quickSuite(kScale);
    for (workloads::BenchmarkSpec &spec : suite)
        spec.seed = mix64(spec.seed ^ (seed * 0x9e3779b97f4a7c15ull));
    return suite;
}

struct Bench
{
    workloads::BenchmarkSpec spec;
    std::uint64_t length = 0; ///< dynamic instructions, one pass.
};

// ---------------------------------------------------------------
// What an estimate is checked on.
// ---------------------------------------------------------------

std::uint64_t
bitsOf(double v)
{
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

/** Fingerprint, and per-config CPI and relative 99.7% CI. */
struct Outcome
{
    std::vector<std::uint64_t> fingerprint; ///< empty = errored.
    std::vector<double> cpi;
    std::vector<double> ci;
};

constexpr double kLevel = 0.997;

void
append(Outcome &o, const core::SmartsEstimate &e)
{
    const std::vector<std::uint64_t> fp = e.fingerprint();
    o.fingerprint.insert(o.fingerprint.end(), fp.begin(), fp.end());
    o.cpi.push_back(e.cpi());
    o.ci.push_back(e.cpiConfidenceInterval(kLevel));
}

Outcome
summarize(const core::SmartsEstimate &e)
{
    Outcome o;
    append(o, e);
    return o;
}

/** The anytime contract covers the unit counts and the stop flag. */
Outcome
summarize(const core::AnytimeResult &r)
{
    Outcome o = summarize(r.estimate);
    o.fingerprint.push_back(r.unitsAvailable);
    o.fingerprint.push_back(r.unitsMeasured);
    o.fingerprint.push_back(r.earlyStopped ? 1 : 0);
    return o;
}

Outcome
summarize(const core::MatchedEstimate &m)
{
    Outcome o;
    for (const core::SmartsEstimate &e : m.perConfig)
        append(o, e);
    for (const stats::OnlineStats &d : m.cpiDelta) {
        o.fingerprint.push_back(d.count());
        o.fingerprint.push_back(bitsOf(d.mean()));
        o.fingerprint.push_back(bitsOf(d.variance()));
    }
    return o;
}

std::string
hexOf(const std::vector<std::uint64_t> &fp)
{
    std::string out;
    char word[24];
    for (std::size_t i = 0; i < fp.size(); ++i) {
        std::snprintf(word, sizeof word, "%s%" PRIx64, i ? "," : "",
                      fp[i]);
        out += word;
    }
    return out;
}

// ---------------------------------------------------------------
// Pins: reference CPIs and fingerprints at the default seed.
// ---------------------------------------------------------------

/** "ref <config> <benchmark>" -> cpi, "fp <workload> <benchmark>"
 *  -> hex fingerprint, as text lines of the pins file. */
using Pins = std::map<std::string, std::string>;

Pins
readPins(const std::string &path)
{
    Pins pins;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string kind, a, b, value;
        if (fields >> kind >> a >> b >> value)
            pins[kind + " " + a + " " + b] = value;
    }
    return pins;
}

bool
writePins(const std::string &path, const Pins &pins)
{
    std::ofstream out(path, std::ios::trunc);
    out << "# Reference CPIs (ref <config> <benchmark> <cpi>) and "
           "estimate fingerprints\n"
           "# (fp <workload> <benchmark> <hex words>) at the default "
           "seed " << kDefaultSeed << ".\n"
           "# Rewritten only by: python3 perfbench/run.py "
           "--workload <name> --pin\n";
    for (const auto &[key, value] : pins)
        out << key << ' ' << value << '\n';
    return static_cast<bool>(out);
}

std::string
cpiText(double cpi)
{
    char text[40];
    std::snprintf(text, sizeof text, "%a", cpi);
    return text;
}

// ---------------------------------------------------------------
// Where the calling thread runs.
// ---------------------------------------------------------------

/**
 * The CPUs this process may run on. On a shared host one CPU can run
 * at half speed for tens of seconds while its neighbours load it, and
 * the other CPUs do not follow it. Each estimate and each set-up moves
 * the calling thread to the next CPU in turn, so a benchmark's fastest
 * pass does not hang on the load next to one CPU.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        CPU_ZERO(&all_);
        if (sched_getaffinity(0, sizeof all_, &all_) != 0)
            return;
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &all_))
                cpus_.push_back(c);
    }

    /** Run the calling thread on the @p k-th CPU, counted round. */
    void
    pin(std::size_t k) const
    {
        if (cpus_.size() < 2)
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[k % cpus_.size()], &one);
        sched_setaffinity(0, sizeof one, &one);
    }

    /** Let the calling thread run on all of them again. */
    void
    release() const
    {
        if (cpus_.size() >= 2)
            sched_setaffinity(0, sizeof all_, &all_);
    }

  private:
    cpu_set_t all_;
    std::vector<int> cpus_;
};

// ---------------------------------------------------------------
// Per-layer record of a traced pass.
// ---------------------------------------------------------------

struct TraceRecord
{
    Tracer tracer;
    BuildCounter poolBuilds; ///< sessions built inside pool jobs.
    std::uint64_t fwarmInsts = 0;
    std::uint64_t detailedInsts = 0;
    std::uint64_t multiDetailedInsts = 0;
    std::uint64_t points = 0;
    std::uint64_t memBytes = 0;
    std::uint64_t diskBytes = 0;
    std::uint64_t unitsMeasured = 0;
    std::uint64_t unitsAvailable = 0;
    std::uint64_t earlyStops = 0;
    double readProbeS = 0.0;      ///< raw file reads of hit entries.
    double loadProbeS = 0.0;      ///< full live-point loads of them.
    double serializeProbeS = 0.0; ///< serializations of published ones.
    double probeS = 0.0;          ///< all probe time, outside the wall.
};

// ---------------------------------------------------------------
// The run: set-up, the estimators, the passes.
// ---------------------------------------------------------------

class Run
{
  public:
    explicit Run(const Options &opt)
        : opt_(opt), pool_(std::min(4u, exec::ThreadPool::hardwareThreads()))
    {
    }

    const Options &
    options() const
    {
        return opt_;
    }

    exec::ThreadPool &
    pool()
    {
        return pool_;
    }

    const CpuRotation &
    cpus() const
    {
        return cpus_;
    }

    const std::vector<Bench> &
    benches() const
    {
        return benches_;
    }

    /** Specs, stream lengths and (anytime_warm) a filled store. */
    void
    setUp()
    {
        benches_.clear();
        for (const workloads::BenchmarkSpec &spec : suiteFor(opt_.seed)) {
            core::SimSession probe(spec, eightWay());
            Bench b;
            b.spec = spec;
            b.length =
                probe.fastForward(~0ull >> 1, core::WarmingMode::None);
            benches_.push_back(b);
        }
        if (opt_.kind != Kind::AnytimeWarm)
            return;
        warmStore_ = std::make_unique<core::CheckpointStore>(freshRoot());
        const core::ProcedureConfig pc = procedureFor(opt_.kind);
        for (const Bench &b : benches_)
            warmStore_->ensureLivePoints(b.spec, {eightWay()},
                                         initialDesign(pc, b.length));
    }

    /** Drop set-up state that a repeated set-up would leak. */
    void
    discardWarmStore()
    {
        if (!warmStore_)
            return;
        const std::string root = warmStore_->root();
        warmStore_.reset();
        fs::remove_all(root);
    }

    /** A store root no earlier part of the run has used. */
    std::string
    freshRoot()
    {
        return opt_.storeRoot + "/store-" + std::to_string(stores_++);
    }

    core::CheckpointStore *
    warmStore()
    {
        return warmStore_.get();
    }

    /** One untraced estimate, exactly as a user would ask for it. */
    Outcome
    estimate(const Bench &b, core::CheckpointStore *store)
    {
        const core::ProcedureConfig pc = procedureFor(opt_.kind);
        const core::SmartsProcedure procedure(pc);
        const workloads::BenchmarkSpec spec = b.spec;
        switch (opt_.kind) {
          case Kind::TwopassCold:
            return summarize(
                procedure
                    .estimate(
                        [spec] {
                            return std::make_unique<core::SimSession>(
                                spec, eightWay());
                        },
                        b.length)
                    .final());
          case Kind::AnytimeWarm:
          case Kind::AnytimeCold:
            return summarize(procedure.estimateAnytime(
                [spec] {
                    return std::make_unique<core::SimSession>(
                        spec, eightWay());
                },
                b.spec, eightWay(), b.length, pool_, *store,
                opt_.seed));
          case Kind::MatchedSweep:
            return summarize(
                procedure
                    .estimateMatched(
                        [spec] {
                            return std::make_unique<core::MultiSession>(
                                spec, machinesOf(Kind::MatchedSweep));
                        },
                        b.length)
                    .final());
        }
        return {};
    }

    /** The same estimate, driven through spans in @p tr. */
    Outcome
    estimateTraced(const Bench &b, core::CheckpointStore *store,
                   TraceRecord &tr)
    {
        switch (opt_.kind) {
          case Kind::TwopassCold: return summarize(tracedTwoPass(b, tr));
          case Kind::AnytimeWarm:
          case Kind::AnytimeCold:
            return summarize(tracedAnytime(b, *store, tr));
          case Kind::MatchedSweep: return summarize(tracedMatched(b, tr));
        }
        return {};
    }

  private:
    core::SmartsEstimate tracedTwoPass(const Bench &b, TraceRecord &tr);
    core::SmartsEstimate tracedPass(const Bench &b,
                                    const core::SamplingConfig &sc,
                                    TraceRecord &tr);
    core::MatchedEstimate tracedMatched(const Bench &b, TraceRecord &tr);
    core::MatchedEstimate tracedMatchedPass(const Bench &b,
                                            const core::SamplingConfig &sc,
                                            TraceRecord &tr);
    core::AnytimeResult tracedAnytime(const Bench &b,
                                      core::CheckpointStore &store,
                                      TraceRecord &tr);

    Options opt_;
    CpuRotation cpus_;
    exec::ThreadPool pool_;
    std::vector<Bench> benches_;
    std::unique_ptr<core::CheckpointStore> warmStore_;
    int stores_ = 0;
};

/**
 * One pass of SystematicSampler::run, step for step, through the
 * public SimSession calls so each call gets its own span. The
 * estimate must equal the library's bit for bit (checked).
 */
core::SmartsEstimate
Run::tracedPass(const Bench &b, const core::SamplingConfig &sc,
                TraceRecord &tr)
{
    std::unique_ptr<core::SimSession> session;
    {
        Scoped span(&tr.tracer, "session.build");
        session = std::make_unique<core::SimSession>(b.spec, eightWay());
    }
    auto fastForward = [&](std::uint64_t n) {
        Scoped span(&tr.tracer, "session.fwarm");
        const std::uint64_t done = session->fastForward(n, sc.warming);
        tr.fwarmInsts += done;
        return done;
    };
    auto detailed = [&](std::uint64_t n) {
        Scoped span(&tr.tracer, "session.detailed");
        const core::Segment seg = session->detailedRun(n);
        tr.detailedInsts += seg.instructions;
        return seg;
    };

    const std::uint64_t u = sc.unitSize;
    const std::uint64_t w = sc.detailedWarming;
    core::SmartsEstimate est;
    std::uint64_t pos = session->instCount();
    std::uint64_t unitIdx = sc.nextGridIndex(sc.offset, pos);
    while (!session->finished()) {
        if (unitIdx > ~0ull / u)
            break;
        const std::uint64_t unitStart = unitIdx * u;
        const std::uint64_t warmStart = unitStart > w ? unitStart - w : 0;
        if (warmStart > pos) {
            pos += fastForward(warmStart - pos);
            if (session->finished())
                break;
        }
        if (unitStart > pos) {
            const core::Segment warm = detailed(unitStart - pos);
            est.instructionsWarmed += warm.instructions;
            pos += warm.instructions;
            if (session->finished())
                break;
        }
        const core::Segment seg = detailed(u);
        pos += seg.instructions;
        if (seg.instructions == u) {
            est.instructionsMeasured += u;
            est.cpiStats.add(static_cast<double>(seg.cycles) /
                             static_cast<double>(u));
            est.epiStats.add(seg.energyNj /
                             static_cast<double>(seg.instructions));
        } else {
            est.instructionsDropped += seg.instructions;
        }
        unitIdx += sc.interval;
    }
    while (!session->finished())
        fastForward(~0ull >> 1);
    est.streamLength = session->instCount();
    return est;
}

/** SmartsProcedure::estimate's two-pass decision, over tracedPass. */
core::SmartsEstimate
Run::tracedTwoPass(const Bench &b, TraceRecord &tr)
{
    const core::ProcedureConfig pc = procedureFor(opt_.kind);
    core::SamplingConfig sc = initialDesign(pc, b.length);
    const core::SmartsEstimate initial = tracedPass(b, sc, tr);
    const std::uint64_t n =
        stats::requiredSampleSize(initial.cpiCv(), pc.target);
    if (initial.cpiConfidenceInterval(pc.target.level) <=
        pc.target.epsilon)
        return initial;
    const std::uint64_t units = b.length / pc.unitSize;
    sc.interval = units > n && n ? units / n : 1;
    return tracedPass(b, sc, tr);
}

/** SystematicSampler::runMatched through public MultiSession calls. */
core::MatchedEstimate
Run::tracedMatchedPass(const Bench &b, const core::SamplingConfig &sc,
                       TraceRecord &tr)
{
    std::unique_ptr<core::MultiSession> session;
    {
        Scoped span(&tr.tracer, "multi.build");
        session = std::make_unique<core::MultiSession>(
            b.spec, machinesOf(Kind::MatchedSweep));
    }
    auto fastForward = [&](std::uint64_t n) {
        Scoped span(&tr.tracer, "multi.fwarm");
        return session->fastForward(n, sc.warming);
    };
    auto detailed = [&](std::uint64_t n) {
        Scoped span(&tr.tracer, "multi.detailed");
        core::MultiSegment seg = session->detailedRun(n);
        tr.multiDetailedInsts += seg.instructions;
        return seg;
    };

    const std::uint64_t u = sc.unitSize;
    const std::uint64_t w = sc.detailedWarming;
    const std::size_t n = session->configCount();
    core::MatchedEstimate est;
    est.perConfig.resize(n);
    est.cpiDelta.resize(n);
    std::uint64_t pos = session->instCount();
    std::uint64_t unitIdx = sc.nextGridIndex(sc.offset, pos);
    while (!session->finished()) {
        if (unitIdx > ~0ull / u)
            break;
        const std::uint64_t unitStart = unitIdx * u;
        const std::uint64_t warmStart = unitStart > w ? unitStart - w : 0;
        if (warmStart > pos) {
            pos += fastForward(warmStart - pos);
            if (session->finished())
                break;
        }
        if (unitStart > pos) {
            const core::MultiSegment warm = detailed(unitStart - pos);
            for (std::size_t c = 0; c < n; ++c)
                est.perConfig[c].instructionsWarmed += warm.instructions;
            pos += warm.instructions;
            if (session->finished())
                break;
        }
        const core::MultiSegment seg = detailed(u);
        pos += seg.instructions;
        if (seg.instructions == u) {
            for (std::size_t c = 0; c < n; ++c)
                est.perConfig[c].instructionsMeasured += seg.instructions;
            const double cpi0 = static_cast<double>(seg.per[0].cycles) /
                                static_cast<double>(u);
            for (std::size_t c = 0; c < n; ++c) {
                const double cpi = static_cast<double>(seg.per[c].cycles) /
                                   static_cast<double>(u);
                est.perConfig[c].cpiStats.add(cpi);
                est.perConfig[c].epiStats.add(
                    seg.per[c].energyNj /
                    static_cast<double>(seg.instructions));
                est.cpiDelta[c].add(cpi - cpi0);
            }
        } else {
            for (std::size_t c = 0; c < n; ++c)
                est.perConfig[c].instructionsDropped += seg.instructions;
        }
        unitIdx += sc.interval;
    }
    while (!session->finished())
        fastForward(~0ull >> 1);
    for (std::size_t c = 0; c < n; ++c)
        est.perConfig[c].streamLength = session->instCount();
    return est;
}

/** SmartsProcedure::estimateMatched's decision, over tracedMatchedPass. */
core::MatchedEstimate
Run::tracedMatched(const Bench &b, TraceRecord &tr)
{
    const core::ProcedureConfig pc = procedureFor(opt_.kind);
    core::SamplingConfig sc = initialDesign(pc, b.length);
    core::MatchedEstimate initial = tracedMatchedPass(b, sc, tr);
    double worstCv = 0.0;
    double worstCi = 0.0;
    for (const core::SmartsEstimate &est : initial.perConfig) {
        worstCv = std::max(worstCv, est.cpiCv());
        worstCi = std::max(worstCi,
                           est.cpiConfidenceInterval(pc.target.level));
    }
    if (worstCi <= pc.target.epsilon)
        return initial;
    sc.interval = core::SamplingConfig::chooseInterval(
        b.length, pc.unitSize,
        stats::requiredSampleSize(worstCv, pc.target));
    return tracedMatchedPass(b, sc, tr);
}

/**
 * SmartsProcedure::estimateAnytime through its public parts. A hit
 * is the library's own path: lookup, then runAnytime. A miss runs
 * the leapfrog's three parts one after another (capture, measure,
 * publish) so each gets a span; the leapfrog contract makes the
 * result identical to the overlapped path's (checked).
 */
core::AnytimeResult
Run::tracedAnytime(const Bench &b, core::CheckpointStore &store,
                   TraceRecord &tr)
{
    const core::ProcedureConfig pc = procedureFor(opt_.kind);
    const core::SamplingConfig sc = initialDesign(pc, b.length);
    const core::LibraryKey key = core::LibraryKey::of(b.spec, eightWay(), sc);
    core::AnytimeOptions options;
    options.target = pc.target;
    options.seed = opt_.seed;
    const workloads::BenchmarkSpec spec = b.spec;
    BuildCounter *builds = &tr.poolBuilds;
    const core::SessionFactory factory = [spec, builds] {
        const std::int64_t start = nowNs();
        auto session = std::make_unique<core::SimSession>(spec, eightWay());
        builds->add(start);
        return session;
    };

    core::AnytimeResult result;
    std::string error;
    std::optional<core::LivePointLibrary> library;
    {
        Scoped span(&tr.tracer, "store.lookup");
        library = store.tryLoadLivePoints(key, &error);
    }
    const bool hit = library.has_value();
    if (!hit) {
        std::unique_ptr<core::SimSession> session;
        {
            Scoped span(&tr.tracer, "session.build");
            session = std::make_unique<core::SimSession>(spec, eightWay());
        }
        Scoped span(&tr.tracer, "livepoint.capture");
        library = core::LivePointLibrary::build(*session, sc);
    }
    {
        Scoped span(&tr.tracer, "sampler.measure");
        result = core::SystematicSampler(sc).runAnytime(factory, *library,
                                                        pool_, options);
    }
    if (!hit) {
        Scoped span(&tr.tracer, "store.publish");
        if (!store.saveLivePoints(*library, key, &error))
            std::fprintf(stderr, "perfbench: publish failed: %s\n",
                         error.c_str());
    }
    tr.points += library->unitCount();
    tr.memBytes += library->byteSize();
    tr.unitsMeasured += result.unitsMeasured;
    tr.unitsAvailable += result.unitsAvailable;
    tr.earlyStops += result.earlyStopped ? 1 : 0;
    const std::string path = store.livePointPathFor(key);
    std::error_code ec;
    const std::uintmax_t fileBytes = fs::file_size(path, ec);
    tr.diskBytes += ec ? 0 : fileBytes;

    // Probes split the publish of a miss into serialize and the
    // store's own work, and the lookup of a hit into raw read and
    // decode. Each "probe" span's time is taken out of the pass; each
    // probe's clock stops before its result is freed, as the spans it
    // is compared with do.
    if (!hit) {
        const std::int64_t start = nowNs();
        {
            Scoped probe(&tr.tracer, "probe");
            util::BinaryWriter out;
            Scoped span(&tr.tracer, "probe.livepoint.serialize");
            library->serialize(key, out);
            tr.serializeProbeS += secondsSince(start);
        }
        tr.probeS += secondsSince(start);
    }
    {
        Scoped span(&tr.tracer, "livepoint.free");
        library.reset();
    }
    if (hit) {
        const std::int64_t start = nowNs();
        {
            Scoped probe(&tr.tracer, "probe");
            std::optional<util::BinaryReader> raw;
            std::int64_t t = nowNs();
            {
                Scoped span(&tr.tracer, "probe.livepoint.read");
                raw.emplace(util::BinaryReader::fromFile(path, &error));
            }
            tr.readProbeS += secondsSince(t);
            raw.reset();
            std::optional<core::LivePointLibrary> loaded;
            t = nowNs();
            {
                Scoped span(&tr.tracer, "probe.livepoint.load");
                loaded = core::LivePointLibrary::load(path, key, &error);
            }
            tr.loadProbeS += secondsSince(t);
        }
        tr.probeS += secondsSince(start);
    }
    return result;
}

/** One pass over the suite: per-benchmark times and outcomes. */
struct Pass
{
    std::vector<double> estimateS; ///< ask-to-estimate, per benchmark.
    double wallS = 0.0;            ///< first ask to last estimate.
    double cpuS = 0.0; ///< process CPU seconds during the pass.
    std::vector<Outcome> outcomes;
    std::string storeRoot; ///< anytime_cold: the store it filled.
    core::StoreCounters storeOps; ///< store operations of the pass.
    std::uint64_t storeBytes = 0; ///< store size after the pass.
};

core::StoreCounters
operator-(const core::StoreCounters &a, const core::StoreCounters &b)
{
    core::StoreCounters d;
    d.hits = a.hits - b.hits;
    d.misses = a.misses - b.misses;
    d.refusals = a.refusals - b.refusals;
    d.saves = a.saves - b.saves;
    d.statCalls = a.statCalls - b.statCalls;
    return d;
}

double
processCpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(usage.ru_utime) + secs(usage.ru_stime);
}

/**
 * Peak resident memory of this program, from VmHWM: unlike
 * getrusage's ru_maxrss it starts afresh at exec, so the launcher's
 * own footprint is not in it.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

/** Pass @p index of its kind; benchmark b of it runs on CPU index + b. */
Pass
runPass(Run &run, TraceRecord *tr, std::size_t index)
{
    Pass pass;
    std::unique_ptr<core::CheckpointStore> fresh;
    core::CheckpointStore *store = run.warmStore();
    if (run.options().kind == Kind::AnytimeCold) {
        pass.storeRoot = run.freshRoot();
        fresh = std::make_unique<core::CheckpointStore>(pass.storeRoot);
        store = fresh.get();
    }
    const core::StoreCounters opsBefore =
        store ? store->counters() : core::StoreCounters{};
    const double cpu0 = processCpuSeconds();
    const std::int64_t start = nowNs();
    double probes = 0.0;
    for (std::size_t i = 0; i < run.benches().size(); ++i) {
        const Bench &b = run.benches()[i];
        run.cpus().pin(index + i);
        const std::int64_t askNs = nowNs();
        const double probesBefore = tr ? tr->probeS : 0.0;
        Outcome outcome;
        try {
            if (tr) {
                Scoped root(&tr->tracer, "estimate");
                outcome = run.estimateTraced(b, store, *tr);
            } else {
                outcome = run.estimate(b, store);
            }
        } catch (const std::exception &e) {
            std::fprintf(stderr, "perfbench: %s errored: %s\n",
                         b.spec.name.c_str(), e.what());
            outcome = Outcome{};
        }
        const double probe = tr ? tr->probeS - probesBefore : 0.0;
        probes += probe;
        pass.estimateS.push_back(secondsSince(askNs) - probe);
        pass.outcomes.push_back(std::move(outcome));
    }
    pass.wallS = secondsSince(start) - probes;
    run.cpus().release();
    pass.cpuS = processCpuSeconds() - cpu0;
    if (store) {
        pass.storeOps = store->counters() - opsBefore;
        pass.storeBytes = store->totalBytes();
    }
    return pass;
}

/**
 * The suite's time with each benchmark at its fastest pass, and the
 * slowest benchmark's time on the same terms. Interference from
 * other work on the host only ever adds time, and on a shared host
 * it comes and goes within a run; each benchmark's best pass is the
 * closest reading of what the program itself costs.
 */
struct SuiteTimes
{
    double wallS = 0.0;
    double slowestS = 0.0;
};

SuiteTimes
bestOf(const std::vector<Pass> &passes)
{
    SuiteTimes t;
    for (std::size_t b = 0; b < passes.front().estimateS.size(); ++b) {
        double best = passes.front().estimateS[b];
        for (const Pass &p : passes)
            best = std::min(best, p.estimateS[b]);
        t.wallS += best;
        t.slowestS = std::max(t.slowestS, best);
    }
    return t;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// ---------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char text[40];
    std::snprintf(text, sizeof text, "%.17g", v);
    return text;
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("%-28s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    jsonNumber(metrics[i].value).c_str(),
                    metrics[i].unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
}

/** The per-layer metrics of the traced passes (medians of times). */
std::vector<Metric>
layerMetrics(const std::vector<TraceRecord *> &traced,
             const std::vector<Pass> &tracedPasses,
             const std::vector<Pass> &plainPasses, unsigned threads)
{
    std::map<std::string, std::vector<double>> samples;
    auto sample = [&](const std::string &name, double v) {
        samples[name].push_back(v);
    };
    for (std::size_t i = 0; i < traced.size(); ++i) {
        const TraceRecord &tr = *traced[i];
        std::map<std::string, double> self = tr.tracer.selfSeconds();
        const double buildS =
            self["session.build"] +
            static_cast<double>(tr.poolBuilds.ns.load()) * 1e-9;
        const double decodeS = std::max(0.0, tr.loadProbeS - tr.readProbeS);
        const double measureS = self["sampler.measure"];
        sample("session.fwarm.self_s", self["session.fwarm"]);
        sample("session.fwarm.mips",
               self["session.fwarm"] > 0
                   ? static_cast<double>(tr.fwarmInsts) /
                         self["session.fwarm"] * 1e-6
                   : 0.0);
        sample("session.detailed.self_s", self["session.detailed"]);
        sample("session.detailed.mips",
               self["session.detailed"] > 0
                   ? static_cast<double>(tr.detailedInsts) /
                         self["session.detailed"] * 1e-6
                   : 0.0);
        sample("session.build.self_s", buildS);
        sample("multi.fwarm.self_s", self["multi.fwarm"]);
        sample("multi.detailed.self_s", self["multi.detailed"]);
        sample("livepoint.capture.self_s", self["livepoint.capture"]);
        sample("livepoint.serialize.self_s", tr.serializeProbeS);
        sample("livepoint.read.self_s", tr.readProbeS);
        sample("livepoint.decode.self_s", decodeS);
        sample("store.lookup.self_s",
               std::max(0.0, self["store.lookup"] - tr.loadProbeS));
        sample("store.publish.self_s",
               std::max(0.0, self["store.publish"] - tr.serializeProbeS));
        sample("sampler.measure.self_s", measureS);
        sample("sampler.per_unit_us",
               tr.unitsMeasured
                   ? measureS / static_cast<double>(tr.unitsMeasured) * 1e6
                   : 0.0);

        // Estimate time not covered by a layer span: the roots' own
        // self time (one thread, so children never overlap), over the
        // roots' time without the probes.
        double rootS = -tr.probeS;
        for (const Span &span : tr.tracer.spans())
            rootS += span.parent < 0 ? span.seconds() : 0.0;
        sample("trace.unattributed_frac",
               rootS > 0 ? self["estimate"] / rootS : 0.0);
    }

    std::vector<double> plainUtil;
    for (const Pass &p : plainPasses)
        plainUtil.push_back(p.cpuS / (p.wallS * threads));

    const TraceRecord &last = *traced.back();
    const core::StoreCounters &storeDelta = tracedPasses.back().storeOps;
    const std::uint64_t storeBytes = tracedPasses.back().storeBytes;
    std::uint64_t buildCount = last.poolBuilds.count.load();
    for (const Span &span : last.tracer.spans())
        buildCount += span.name == "session.build" ? 1 : 0;

    std::vector<Metric> out = {
        {"session.fwarm.insts", static_cast<double>(last.fwarmInsts), "count"},
        {"session.fwarm.self_s", median(samples["session.fwarm.self_s"]), "s"},
        {"session.fwarm.mips", median(samples["session.fwarm.mips"]), "MIPS"},
        {"session.detailed.insts", static_cast<double>(last.detailedInsts),
         "count"},
        {"session.detailed.self_s", median(samples["session.detailed.self_s"]),
         "s"},
        {"session.detailed.mips", median(samples["session.detailed.mips"]),
         "MIPS"},
        {"session.build.count", static_cast<double>(buildCount), "count"},
        {"session.build.self_s", median(samples["session.build.self_s"]), "s"},
        {"multi.fwarm.self_s", median(samples["multi.fwarm.self_s"]), "s"},
        {"multi.detailed.self_s", median(samples["multi.detailed.self_s"]),
         "s"},
        {"multi.detailed.insts", static_cast<double>(last.multiDetailedInsts),
         "count"},
        {"livepoint.capture.self_s",
         median(samples["livepoint.capture.self_s"]), "s"},
        {"livepoint.points", static_cast<double>(last.points), "count"},
        {"livepoint.mem_bytes", static_cast<double>(last.memBytes), "bytes"},
        {"livepoint.disk_bytes", static_cast<double>(last.diskBytes), "bytes"},
        {"livepoint.serialize.self_s",
         median(samples["livepoint.serialize.self_s"]), "s"},
        {"livepoint.read.self_s", median(samples["livepoint.read.self_s"]),
         "s"},
        {"livepoint.decode.self_s", median(samples["livepoint.decode.self_s"]),
         "s"},
        {"store.lookup.self_s", median(samples["store.lookup.self_s"]), "s"},
        {"store.publish.self_s", median(samples["store.publish.self_s"]), "s"},
        {"store.hits", static_cast<double>(storeDelta.hits), "count"},
        {"store.misses", static_cast<double>(storeDelta.misses), "count"},
        {"store.refusals", static_cast<double>(storeDelta.refusals), "count"},
        {"store.saves", static_cast<double>(storeDelta.saves), "count"},
        {"store.stat_calls", static_cast<double>(storeDelta.statCalls),
         "count"},
        {"store.bytes", static_cast<double>(storeBytes), "bytes"},
        {"sampler.measure.self_s", median(samples["sampler.measure.self_s"]),
         "s"},
        {"sampler.units_measured", static_cast<double>(last.unitsMeasured),
         "count"},
        {"sampler.units_available", static_cast<double>(last.unitsAvailable),
         "count"},
        {"sampler.early_stops", static_cast<double>(last.earlyStops), "count"},
        {"sampler.per_unit_us", median(samples["sampler.per_unit_us"]), "us"},
        {"exec.threads", static_cast<double>(threads), "count"},
        {"exec.cpu_util", median(plainUtil), "ratio"},
        {"trace.overhead_s",
         bestOf(tracedPasses).wallS - bestOf(plainPasses).wallS, "s"},
        {"trace.unattributed_frac",
         median(samples["trace.unattributed_frac"]), "ratio"},
    };
    return out;
}

/** The layer with the most self time in @p m, by module name. */
std::string
dominantLayer(const std::vector<Metric> &m)
{
    auto get = [&](const std::string &name) {
        for (const Metric &x : m)
            if (x.name == name)
                return x.value;
        return 0.0;
    };
    const std::pair<std::string, double> layers[] = {
        {"core.session", get("session.fwarm.self_s") +
                             get("session.detailed.self_s") +
                             get("session.build.self_s")},
        {"core.multi_session",
         get("multi.fwarm.self_s") + get("multi.detailed.self_s")},
        {"core.livepoint (capture)", get("livepoint.capture.self_s")},
        {"core.livepoint (read+decode)",
         get("livepoint.read.self_s") + get("livepoint.decode.self_s")},
        {"core.livepoint (serialize)", get("livepoint.serialize.self_s")},
        {"core.checkpoint_store",
         get("store.lookup.self_s") + get("store.publish.self_s")},
        {"core.sampler", get("sampler.measure.self_s")},
    };
    const auto *best = &layers[0];
    for (const auto &layer : layers)
        if (layer.second > best->second)
            best = &layer;
    return best->first;
}

int
benchMain(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    if (opt.pin && opt.seed != kDefaultSeed)
        usage("--pin needs the default seed");
    Run run(opt);
    const std::vector<uarch::MachineConfig> machines = machinesOf(opt.kind);

    // Set-up, several times; the last set-up serves the passes.
    std::vector<double> setups;
    const std::int64_t setupStart = nowNs();
    while (setups.size() < kMinSetups ||
           secondsSince(setupStart) < kMinSetupSeconds) {
        run.discardWarmStore();
        run.cpus().pin(setups.size());
        const std::int64_t start = nowNs();
        run.setUp();
        setups.push_back(secondsSince(start));
    }
    run.cpus().release();

    // Timed passes while the next is expected to end within --seconds,
    // and up to kMinPasses when time allows (untraced and traced
    // alternating under --trace 1).
    std::vector<Pass> plain, traced;
    std::vector<std::unique_ptr<TraceRecord>> records;
    std::string coldRoot; // newest untraced cold store: cross-path check.
    const std::int64_t measureStart = nowNs();
    do {
        plain.push_back(runPass(run, nullptr, plain.size()));
        if (!plain.back().storeRoot.empty()) {
            if (!coldRoot.empty())
                fs::remove_all(coldRoot);
            coldRoot = plain.back().storeRoot;
        }
        if (opt.trace) {
            records.push_back(std::make_unique<TraceRecord>());
            traced.push_back(
                runPass(run, records.back().get(), traced.size()));
            if (!traced.back().storeRoot.empty())
                fs::remove_all(traced.back().storeRoot);
        }
    } while ([&] {
        const double elapsed = secondsSince(measureStart);
        const double perPass = elapsed / static_cast<double>(plain.size());
        const double limit = plain.size() < kMinPasses
                                 ? kMaxMeasureFactor * opt.seconds
                                 : opt.seconds;
        return elapsed + perPass <= limit;
    }());
    const double rssMb = peakRssMb();

    // ---- Checks (untimed). ----
    const std::vector<Bench> &benches = run.benches();
    const std::size_t nb = benches.size();
    Pins pins = readPins(opt.pinsPath);
    const bool pinned = opt.seed == kDefaultSeed && !opt.pin;
    std::vector<bool> benchOk(nb, true);
    std::uint64_t attempted = 0, failed = 0;

    // Reference CPIs: full detailed runs of every benchmark, one
    // runner per (benchmark, machine) so they can share the pool.
    const std::size_t nm = machines.size();
    std::vector<std::vector<double>> refCpi(nb, std::vector<double>(nm));
    exec::parallelForIndexed(run.pool(), nb * nm, [&](std::size_t job) {
        const std::size_t i = job / nm, c = job % nm;
        core::ReferenceRunner reference(kScale, machines[c]);
        refCpi[i][c] = reference.get(benches[i].spec).cpi;
    });
    for (std::size_t i = 0; i < nb; ++i) {
        for (std::size_t c = 0; c < nm; ++c) {
            const std::string key =
                "ref " + machines[c].name + " " + benches[i].spec.name;
            const std::string cpi = cpiText(refCpi[i][c]);
            if (opt.pin) {
                pins[key] = cpi;
            } else if (pinned && (!pins.count(key) || pins[key] != cpi)) {
                std::fprintf(stderr, "perfbench: %s: reference CPI %s != "
                             "pinned '%s'\n", key.c_str(), cpi.c_str(),
                             pins[key].c_str());
                benchOk[i] = false;
            }
        }
    }

    // Expected fingerprints: the pin at the default seed, else the
    // first untraced pass.
    std::vector<std::vector<std::uint64_t>> expected(nb);
    for (std::size_t i = 0; i < nb; ++i) {
        expected[i] = plain.front().outcomes[i].fingerprint;
        const std::string key =
            "fp " + opt.workload + " " + benches[i].spec.name;
        if (opt.pin) {
            pins[key] = hexOf(expected[i]);
        } else if (pinned && (!pins.count(key) ||
                               pins[key] != hexOf(expected[i]))) {
            std::fprintf(stderr, "perfbench: %s: fingerprint differs from "
                         "the pin, or is not pinned\n", key.c_str());
            benchOk[i] = false;
        }
    }

    // Cross-path check: estimates from the store the cold path just
    // filled (the warm path) must equal the cold path's. Run under
    // anytime_cold only; anytime_warm would repeat the same check.
    if (opt.kind == Kind::AnytimeCold) {
        core::CheckpointStore store(coldRoot);
        for (std::size_t i = 0; i < nb; ++i) {
            const core::StoreCounters before = store.counters();
            const Outcome warm = run.estimate(benches[i], &store);
            ++attempted;
            if (store.counters().hits == before.hits ||
                warm.fingerprint != expected[i]) {
                std::fprintf(stderr, "perfbench: %s: warm path disagrees "
                             "with the cold path\n",
                             benches[i].spec.name.c_str());
                ++failed;
                benchOk[i] = false;
            }
        }
    }
    if (!coldRoot.empty())
        fs::remove_all(coldRoot);
    run.discardWarmStore();

    // Every pass's every estimate, against the expectation.
    double cpiErr = 0.0, ciHalf = 0.0;
    auto check = [&](const Pass &p) {
        for (std::size_t i = 0; i < nb; ++i) {
            const Outcome &o = p.outcomes[i];
            ++attempted;
            const bool ok = benchOk[i] && !o.fingerprint.empty() &&
                            o.fingerprint == expected[i];
            failed += ok ? 0 : 1;
            for (std::size_t c = 0; c < o.cpi.size(); ++c) {
                cpiErr = std::max(cpiErr, std::fabs(o.cpi[c] - refCpi[i][c]) /
                                              refCpi[i][c] * 100.0);
                ciHalf = std::max(ciHalf, o.ci[c] * 100.0);
            }
        }
    };
    for (const Pass &p : plain)
        check(p);
    for (const Pass &p : traced)
        check(p);

    if (opt.pin) {
        if (!writePins(opt.pinsPath, pins)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         opt.pinsPath.c_str());
            return 1;
        }
        std::printf("pinned %zu benchmarks of %s to %s\n", nb,
                    opt.workload.c_str(), opt.pinsPath.c_str());
        return failed ? 1 : 0;
    }

    // ---- Report. ----
    std::vector<double> passWalls;
    for (const Pass &p : plain)
        passWalls.push_back(p.wallS);
    std::printf("workload %s, seed %" PRIu64 ", %zu untraced + %zu traced "
                "passes, %u pool threads; untraced pass wall: median "
                "%.4f s, min %.4f s, max %.4f s\n",
                opt.workload.c_str(), opt.seed, plain.size(), traced.size(),
                run.pool().threadCount(), median(passWalls),
                *std::min_element(passWalls.begin(), passWalls.end()),
                *std::max_element(passWalls.begin(), passWalls.end()));
    for (std::size_t i = 0; i < nb; ++i)
        std::printf("  %-10s cpi %.4f ref %.4f ci %.2f%% %s\n",
                    benches[i].spec.name.c_str(),
                    plain.front().outcomes[i].cpi.empty()
                        ? 0.0
                        : plain.front().outcomes[i].cpi[0],
                    refCpi[i][0],
                    plain.front().outcomes[i].ci.empty()
                        ? 0.0
                        : plain.front().outcomes[i].ci[0] * 100.0,
                    benchOk[i] ? "ok" : "FAILED");
    // Reported, not in the JSON: failed_frac is 0 on correct code, and
    // cpi_err_pct moves with the seed far more than any bound allows.
    std::printf("%-28s %16.6f ratio\n", "failed_frac",
                static_cast<double>(failed) / static_cast<double>(attempted));
    std::printf("%-28s %16.6f %%\n", "cpi_err_pct", cpiErr);

    std::vector<Metric> metrics;
    if (!opt.trace) {
        const SuiteTimes best = bestOf(plain);
        metrics = {
            {"wall_s", best.wallS, "s"},
            {"slowest_estimate_s", best.slowestS, "s"},
            {"setup_s", median(setups), "s"},
            {"peak_rss_mb", rssMb, "MB"},
            {"ci_halfwidth_pct", ciHalf, "%"},
        };
    } else {
        std::vector<TraceRecord *> recs;
        for (auto &r : records)
            recs.push_back(r.get());
        metrics = layerMetrics(recs, traced, plain, run.pool().threadCount());
        std::printf("dominant_layer %s\n", dominantLayer(metrics).c_str());
    }
    printResult(failed == 0, attempted, failed, metrics);
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    return perfbench::benchMain(argc, argv);
}
