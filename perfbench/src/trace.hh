/**
 * @file
 * The benchmark's clock and its span recorder.
 *
 * Every host-time read of the benchmark goes through nowNs(). Host
 * time is reported, never fed into an estimate.
 *
 * A Tracer records spans (name, start, end, parent) on the calling
 * thread, around the benchmark's own calls into the library's
 * layers. Spans stay in memory until the run ends; self time and
 * coverage are computed from them afterwards. Work the library runs
 * on its pool threads is not visible to spans; the benchmark counts
 * it where it can reach it (the session factory) with BuildCounter.
 */

#ifndef SMARTS_PERFBENCH_TRACE_HH
#define SMARTS_PERFBENCH_TRACE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic host time in nanoseconds. */
inline std::int64_t
nowNs()
{
    // smarts-lint: allow(no-ambient-nondeterminism) host timing for the report only; never reaches an estimate
    const auto now = std::chrono::steady_clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               now.time_since_epoch())
        .count();
}

inline double
secondsSince(std::int64_t startNs)
{
    return static_cast<double>(nowNs() - startNs) * 1e-9;
}

struct Span
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int parent = -1; ///< index into the span list; -1 = root.

    double
    seconds() const
    {
        return static_cast<double>(endNs - startNs) * 1e-9;
    }
};

class Tracer
{
  public:
    /** Open a span as a child of the innermost open span. */
    int
    begin(const std::string &name)
    {
        Span span;
        span.name = name;
        span.parent = open_.empty() ? -1 : open_.back();
        span.startNs = nowNs();
        spans_.push_back(std::move(span));
        open_.push_back(static_cast<int>(spans_.size()) - 1);
        return open_.back();
    }

    void
    end(int id)
    {
        spans_[id].endNs = nowNs();
        open_.pop_back();
    }

    const std::vector<Span> &
    spans() const
    {
        return spans_;
    }

    /** Per-name self time: duration minus the direct children's. */
    std::map<std::string, double>
    selfSeconds() const
    {
        std::map<std::string, double> self;
        for (const Span &span : spans_) {
            self[span.name] += span.seconds();
            if (span.parent >= 0)
                self[spans_[span.parent].name] -= span.seconds();
        }
        return self;
    }

  private:
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span; a null tracer records nothing. */
class Scoped
{
  public:
    Scoped(Tracer *tracer, const std::string &name) : tracer_(tracer)
    {
        if (tracer_)
            id_ = tracer_->begin(name);
    }
    ~Scoped()
    {
        if (tracer_)
            tracer_->end(id_);
    }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

  private:
    Tracer *tracer_;
    int id_ = -1;
};

/**
 * Count and time of session constructions, from any thread: the
 * anytime paths build their sessions inside pool jobs, where no span
 * of the calling thread can see them.
 */
struct BuildCounter
{
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::int64_t> ns{0};

    void
    add(std::int64_t startNs)
    {
        count.fetch_add(1, std::memory_order_relaxed);
        ns.fetch_add(nowNs() - startNs, std::memory_order_relaxed);
    }
};

} // namespace perfbench

#endif // SMARTS_PERFBENCH_TRACE_HH
