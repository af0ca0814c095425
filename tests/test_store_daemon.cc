/**
 * @file
 * Store-daemon protocol tests (docs/store-service.md): drive the
 * real smarts_stored binary (path via argv[1]) through the
 * StoreServiceClient library path.
 *
 * The contracts under test:
 *  - two concurrent leaders missing on the SAME key trigger exactly
 *    ONE capture (single-flight), observable from the outside via
 *    the cumulative counter echo in every reply;
 *  - a library served by the daemon folds to an estimate
 *    bit-identical to a serial SystematicSampler::run() — the
 *    daemon is a cache, never a source of drift;
 *  - a daemon that dies mid-lookup degrades to the leader's local
 *    store, which still produces the identical estimate;
 *  - one daemon per service directory (the presence marker is an
 *    exclusive lock), and removing the marker stops it cleanly;
 *  - a well-formed request for a design no capture can walk gets a
 *    Refused reply instead of killing the daemon.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>

#include "core/checkpoint_store.hh"
#include "core/livepoint.hh"
#include "core/sampler.hh"
#include "core/session.hh"
#include "distrib/store_service.hh"
#include "exec/thread_pool.hh"
#include "uarch/config.hh"
#include "util/logging.hh"
#include "workloads/benchmark.hh"

#include "check.hh"
#include "estimate_fingerprint.hh"

using namespace smarts;
using smarts::test::fingerprint;
namespace fs = std::filesystem;

namespace {

constexpr const char *kRoot = "test_store_daemon_root";

std::string g_storedBin; ///< smarts_stored path, from argv[1].

workloads::BenchmarkSpec
spec()
{
    return workloads::findBenchmark("sort-1",
                                    workloads::Scale::Mini);
}

core::SamplingConfig
sampling()
{
    core::SamplingConfig sc;
    sc.unitSize = 1000;
    sc.detailedWarming = 2000;
    sc.interval = 10;
    sc.warming = core::WarmingMode::Functional;
    return sc;
}

/** The serial ground truth every served library must fold back to. */
const core::SmartsEstimate &
serialEstimate()
{
    static const core::SmartsEstimate serial = [] {
        core::SimSession session(spec(),
                                 uarch::MachineConfig::eightWay());
        return core::SystematicSampler(sampling()).run(session);
    }();
    return serial;
}

/** Completion-mode fold of @p library; bit-identical to serial by
 *  the anytime contract, so any daemon-path corruption shows up. */
std::vector<std::uint64_t>
foldFingerprint(const core::LivePointLibrary &library)
{
    const auto config = uarch::MachineConfig::eightWay();
    auto factory = [&config] {
        return std::make_unique<core::SimSession>(spec(), config);
    };
    exec::ThreadPool pool(1);
    core::AnytimeOptions options;
    options.target.epsilon = 0.0; // completion mode: measure all.
    const core::AnytimeResult result =
        core::SystematicSampler(sampling())
            .runAnytime(factory, library, pool, options);
    return fingerprint(result.estimate);
}

/** Launch the daemon via popen (stderr folded into the pipe so the
 *  test log carries its output). */
FILE *
startDaemon(const std::string &root, const std::string &svc,
            const std::string &json, const std::string &extra = "")
{
    const std::string cmd = log::format(
        g_storedBin, " --root=", root, " --svc=", svc,
        " --ttl=120 --poll-ms=5 --json=", json, extra, " 2>&1");
    return ::popen(cmd.c_str(), "r");
}

/** Drain a popen pipe to EOF and return (exitStatus, output). */
std::pair<int, std::string>
finishDaemon(FILE *pipe)
{
    std::string output;
    char buf[512];
    while (std::fgets(buf, sizeof buf, pipe))
        output += buf;
    const int raw = ::pclose(pipe);
    const int status =
        raw >= 0 && WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
    return {status, output};
}

bool
waitForMarker(const std::string &svc, bool present)
{
    for (int i = 0; i < 2000; ++i) {
        if (distrib::daemonPresent(svc) == present)
            return true;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(10));
    }
    return false;
}

std::string
slurp(const std::string &path)
{
    std::string all;
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (!f)
        return all;
    char buf[512];
    while (std::fgets(buf, sizeof buf, f))
        all += buf;
    std::fclose(f);
    return all;
}

void
testTwoLeadersSingleFlightBitIdentical()
{
    const std::string base = std::string(kRoot) + "/flight";
    const std::string droot = base + "/daemon_store";
    const std::string svc = base + "/svc";
    const std::string json = base + "/BENCH_store.json";
    fs::create_directories(base);

    FILE *daemon = startDaemon(droot, svc, json);
    CHECK(daemon != nullptr);
    CHECK(waitForMarker(svc, true));

    // A second daemon over the same service directory must refuse
    // to start (the presence marker is an exclusive lock).
    {
        FILE *rival = startDaemon(droot + "2", svc, "");
        CHECK(rival != nullptr);
        const auto [status, output] = finishDaemon(rival);
        CHECK_EQ(status, 1);
        CHECK(output.find("already exists") != std::string::npos);
    }

    // Two leaders, each with its OWN cold local store, race the
    // same key. CHECK is not thread-safe: collect outcomes, assert
    // after the join.
    std::vector<distrib::StoreServiceOutcome> outcomes(2);
    std::vector<std::thread> leaders;
    for (int i = 0; i < 2; ++i)
        leaders.emplace_back([&, i] {
            core::CheckpointStore local(
                log::format(base, "/leader", i, "_store"));
            distrib::StoreServiceClient client(
                svc, log::format("leader", i));
            outcomes[i] = client.ensureLivePoints(
                local, spec(), uarch::MachineConfig::eightWay(),
                sampling(), 60.0);
        });
    for (std::thread &t : leaders)
        t.join();

    int captured = 0;
    for (const distrib::StoreServiceOutcome &o : outcomes) {
        CHECK(o.library.has_value());
        CHECK(!o.degraded);
        CHECK(o.reply.has_value());
        // The single-flight proof: however the two requests landed
        // (one scan or two), the daemon captured exactly once.
        CHECK_EQ(o.reply->captures, std::uint64_t(1));
        CHECK(o.reply->hits + o.reply->misses >= 1);
        CHECK(o.reply->hits + o.reply->misses <= 2);
        captured += o.captured ? 1 : 0;
        CHECK(foldFingerprint(*o.library) ==
              fingerprint(serialEstimate()));
    }
    CHECK(captured >= 1); // same scan: both Captured; else one Hit.

    // A third, later leader is a pure warm hit: no new capture.
    {
        core::CheckpointStore local(base + "/leader2_store");
        distrib::StoreServiceClient client(svc, "leader2");
        const distrib::StoreServiceOutcome o =
            client.ensureLivePoints(
                local, spec(), uarch::MachineConfig::eightWay(),
                sampling(), 60.0);
        CHECK(o.library.has_value());
        CHECK(!o.degraded);
        CHECK(!o.captured);
        CHECK(o.reply.has_value());
        CHECK_EQ(o.reply->captures, std::uint64_t(1));
        CHECK(o.reply->hits >= 1);
    }

    // Removing the marker stops the daemon; it exits 0 and writes
    // the stats artifact with the hit-rate and latency tail.
    std::error_code ec;
    fs::remove(distrib::daemonMarkerPath(svc), ec);
    const auto [status, output] = finishDaemon(daemon);
    CHECK_EQ(status, 0);
    CHECK(output.find("captured 1 library") != std::string::npos);
    const std::string stats = slurp(json);
    CHECK(stats.find("\"captures\": 1") != std::string::npos);
    CHECK(stats.find("\"hit_rate\"") != std::string::npos);
    CHECK(stats.find("\"lookup_ms\"") != std::string::npos);
}

void
testDaemonDeathDegradesToLocal()
{
    const std::string base = std::string(kRoot) + "/death";
    const std::string svc = base + "/svc";
    fs::create_directories(svc);

    // Fake a live daemon: the presence marker with nobody behind
    // it. The client publishes its request, polls, and must notice
    // the marker vanish (death mid-lookup) rather than wait out the
    // full timeout.
    const std::string marker = distrib::daemonMarkerPath(svc);
    {
        std::FILE *f = std::fopen(marker.c_str(), "w");
        CHECK(f != nullptr);
        std::fprintf(f, "0\n");
        std::fclose(f);
    }

    distrib::StoreServiceOutcome outcome;
    std::thread leader([&] {
        core::CheckpointStore local(base + "/leader_store");
        distrib::StoreServiceClient client(svc, "leader");
        outcome = client.ensureLivePoints(
            local, spec(), uarch::MachineConfig::eightWay(),
            sampling(), 60.0);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    std::error_code ec;
    fs::remove(marker, ec);
    leader.join();

    // Degraded, but correct: the local store captured the library
    // and it folds to the identical estimate.
    CHECK(outcome.library.has_value());
    CHECK(outcome.degraded);
    CHECK(outcome.captured);
    CHECK(!outcome.reply.has_value());
    CHECK(foldFingerprint(*outcome.library) ==
          fingerprint(serialEstimate()));

    // The abandoned request file was withdrawn on the way out.
    std::size_t requests = 0;
    fs::directory_iterator it(fs::path(svc) / "requests", ec);
    if (!ec)
        for (const fs::directory_entry &entry : it)
            requests += entry.path().extension() == ".req";
    CHECK_EQ(requests, std::size_t(0));
}

void
testNoDaemonIsTheNormalLocalPath()
{
    const std::string base = std::string(kRoot) + "/nodaemon";
    fs::create_directories(base);

    // No marker at all: the client takes the local path WITHOUT
    // flagging degradation (a service directory that never had a
    // daemon is not an error).
    core::CheckpointStore local(base + "/leader_store");
    distrib::StoreServiceClient client(base + "/svc", "leader");
    const distrib::StoreServiceOutcome outcome =
        client.ensureLivePoints(local, spec(),
                                uarch::MachineConfig::eightWay(),
                                sampling(), 60.0);
    CHECK(outcome.library.has_value());
    CHECK(!outcome.degraded);
    CHECK(outcome.captured);
    CHECK(!outcome.reply.has_value());
    CHECK(foldFingerprint(*outcome.library) ==
          fingerprint(serialEstimate()));

    // And warm on the second call: served from the local store.
    const distrib::StoreServiceOutcome warm =
        client.ensureLivePoints(local, spec(),
                                uarch::MachineConfig::eightWay(),
                                sampling(), 60.0);
    CHECK(warm.library.has_value());
    CHECK(!warm.degraded);
    CHECK(!warm.captured);
}

/**
 * A checksummed, well-formed request whose sampling design has
 * interval = 0 used to reach a fatal in the daemon's capture pass:
 * exit 1, presence marker left behind. It must get a Refused reply
 * naming the design, a valid request after it must still be served,
 * and the daemon must still stop cleanly.
 */
void
testPoisonRequestIsRefused()
{
    const std::string base = std::string(kRoot) + "/poison";
    const std::string svc = base + "/svc";
    fs::create_directories(base);
    // Two requests, then the daemon stops on its own: its clean
    // exit is what removes the presence marker.
    FILE *daemon = startDaemon(base + "/daemon_store", svc,
                               base + "/BENCH_store.json",
                               " --max-requests=2");
    CHECK(daemon != nullptr);
    CHECK(waitForMarker(svc, true));

    distrib::StoreRequest poison;
    poison.reqId = "poison-0";
    poison.benchmark = spec();
    poison.sampling = sampling();
    poison.sampling.interval = 0;
    poison.machine = uarch::MachineConfig::eightWay();
    std::string error;
    CHECK(poison.save(distrib::requestPath(svc, poison.reqId), &error));

    const std::string reply = distrib::replyPath(svc, poison.reqId);
    bool replied = false;
    for (int i = 0; i < 2000 && !replied; ++i) {
        replied = fs::exists(reply);
        if (!replied)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    CHECK(replied);
    const std::optional<distrib::StoreReply> refused =
        distrib::StoreReply::load(reply, &error);
    CHECK(refused.has_value());
    if (refused) {
        CHECK(refused->status == distrib::StoreReplyStatus::Refused);
        CHECK(refused->error.find("zero unit size or interval") !=
              std::string::npos);
    }

    core::CheckpointStore local(base + "/leader_store");
    distrib::StoreServiceClient client(svc, "after-poison");
    const distrib::StoreServiceOutcome served = client.ensureLivePoints(
        local, spec(), uarch::MachineConfig::eightWay(), sampling(),
        60.0);
    CHECK(served.library.has_value());
    CHECK(!served.degraded);
    CHECK(served.reply.has_value());
    if (served.library)
        CHECK(foldFingerprint(*served.library) ==
              fingerprint(serialEstimate()));

    const auto [status, output] = finishDaemon(daemon);
    CHECK_EQ(status, 0);
    CHECK(output.find("1 refused") != std::string::npos);
    CHECK(!distrib::daemonPresent(svc));
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: test_store_daemon <smarts_stored>\n");
        return 2;
    }
    g_storedBin = argv[1];

    fs::remove_all(kRoot);
    fs::create_directories(kRoot);

    testTwoLeadersSingleFlightBitIdentical();
    testDaemonDeathDegradesToLocal();
    testNoDaemonIsTheNormalLocalPath();
    testPoisonRequestIsRefused();

    TEST_MAIN_SUMMARY();
}
