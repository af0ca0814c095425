/**
 * @file
 * The paper's sampling schedule, written once. Every tier walks the
 * stream the same way: fast-forward the gap up to W before each k-th
 * unit of size U (from grid index j), then W instructions of
 * detailed warming, then the measured unit. What a tier does at each
 * point of that walk — measure in detail, warm state only, snapshot a
 * shard boundary or a live-point, heartbeat a claim — is a hook.
 *
 * The walker alone owns the schedule's decisions: the O(1) resume
 * onto the grid, the overflow guard, the W window clamped at stream
 * start, the end-of-stream breaks after the gap and after W, the
 * truncated-unit case (the window hook sees a short unit) and the
 * optional run-out of the tail. It is a template on the concrete
 * session type — SimSession (one config), MultiSession (N configs in
 * lockstep), mp::MixSession (N programs, positions in rounds) — and
 * on the hooks, so no per-unit call goes through std::function.
 */

#ifndef SMARTS_CORE_SCHEDULE_HH
#define SMARTS_CORE_SCHEDULE_HH

#include <cstdint>

#include "core/sampler.hh"
#include "core/session.hh"
#include "util/logging.hh"

namespace smarts::core::detail {

/** Iteration-start hook that never stops the walk. */
inline bool
keepWalking(std::uint64_t)
{
    return true;
}

/** After-gap hook that takes no snapshot. */
inline void
noSnapshot(std::uint64_t)
{
}

/**
 * Walk @p session through the schedule of @p config from grid index
 * @p startIdx (resumed sessions jump to the first unit at or after
 * their position), for at most @p maxUnits units, then run the tail
 * out when @p runTail. Hooks:
 *  - atIteration(unitIdx) -> bool, at every iteration start, before
 *    the end-of-stream check: where the session state equals the
 *    serial run's at the end of the previous unit. false stops the
 *    walk on the spot, tail included.
 *  - afterGap(unitIdx), once the gap is fast-forwarded and W and U
 *    lie ahead.
 *  - window(length, isUnit) -> positions advanced: the W window
 *    (isUnit false) or the measured unit (isUnit true, length U;
 *    fewer positions back means the stream cut the unit short).
 */
template <typename Session, typename AtIteration, typename AfterGap,
          typename Window>
void
walkSchedule(Session &session, const SamplingConfig &config,
             std::uint64_t startIdx, std::uint64_t maxUnits,
             bool runTail, AtIteration &&atIteration,
             AfterGap &&afterGap, Window &&window)
{
    const std::uint64_t u = config.unitSize;
    const std::uint64_t w = config.detailedWarming;
    if (!u || !config.interval)
        SMARTS_FATAL("sampling needs a nonzero unit size and interval");

    std::uint64_t pos = session.instCount();
    std::uint64_t unitIdx = config.nextGridIndex(startIdx, pos);
    for (std::uint64_t done = 0;; ++done, unitIdx += config.interval) {
        if (!atIteration(unitIdx))
            return;
        // A grid index past any representable stream position ends
        // the walk (and keeps unitIdx * u overflow-free).
        if (session.finished() || done == maxUnits ||
            unitIdx > ~0ull / u)
            break;
        const std::uint64_t unitStart = unitIdx * u;
        const std::uint64_t warmStart =
            unitStart > w ? unitStart - w : 0;

        // Fast-forward the inter-unit gap in the warming mode.
        if (warmStart > pos) {
            pos += session.fastForward(warmStart - pos, config.warming);
            if (session.finished())
                break;
        }
        afterGap(unitIdx);

        // Detailed warming W, then the measured unit.
        if (unitStart > pos) {
            pos += window(unitStart - pos, false);
            if (session.finished())
                break;
        }
        pos += window(u, true);
    }

    // Run out the tail so the position is the true stream length.
    if (runTail)
        while (!session.finished())
            session.fastForward(~0ull >> 1, config.warming);
}

/**
 * Book one detailed window into @p r (SliceResult or a tier's
 * equivalent): W instructions are counted as warming, a complete
 * unit as measured — and @p observe records its observation — and a
 * unit the stream cut short as dropped, detailed-simulation cost
 * with no observation.
 */
template <typename Counters, typename Observe>
void
bookWindow(Counters &r, std::uint64_t ran, std::uint64_t length,
           bool isUnit, Observe &&observe)
{
    if (!isUnit) {
        r.warmed += ran;
    } else if (ran == length) {
        r.measured += length;
        observe();
    } else {
        r.dropped += ran;
    }
}

/** The solo tier's detailed window: simulate @p length, book it. */
inline std::uint64_t
measureWindow(SimSession &session, SliceResult &r, std::uint64_t length,
              bool isUnit)
{
    const Segment seg = session.detailedRun(length);
    bookWindow(r, seg.instructions, length, isUnit, [&] {
        r.obs.push_back({static_cast<double>(seg.cycles) /
                             static_cast<double>(length),
                         seg.energyNj /
                             static_cast<double>(seg.instructions)});
    });
    return seg.instructions;
}

} // namespace smarts::core::detail

#endif // SMARTS_CORE_SCHEDULE_HH
