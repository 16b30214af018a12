#ifndef SOD2_SERVING_REQUEST_QUEUE_H_
#define SOD2_SERVING_REQUEST_QUEUE_H_

/**
 * @file
 * Per-worker admission queue of the serving scheduler.
 *
 * Each Sod2Server worker owns one RequestQueue; the dispatcher pushes
 * admitted requests into the worker chosen by the affinity policy and
 * the worker blocks in pop() between runs. The queue itself is
 * unbounded — admission control (depth and bytes budgets, which span
 * all workers) lives in the server, so a shed happens before a request
 * ever reaches a queue.
 *
 * Ordering: higher priority first, FIFO within one priority (stable by
 * admission sequence number). A queued request's deadline is *not*
 * enforced here; the worker checks it at dequeue time so the shed is
 * counted and typed in one place.
 */

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <vector>

#include "core/sod2_engine.h"
#include "tensor/tensor.h"

namespace sod2 {
namespace serving {

/** One admitted request waiting for (or being served by) a worker. */
struct Pending
{
    std::vector<Tensor> inputs;
    std::promise<RunResult> promise;
    /** Engine guardrails resolved at admission (server defaults merged
     *  with the request's overrides). The cooperative run deadline is
     *  re-derived at dequeue from @ref deadline (remaining time). */
    RunOptions runOptions;
    /** Absolute queue deadline; time_point::max() = none. */
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();
    /** Larger runs first; FIFO within one priority. */
    int priority = 0;
    /** Admission sequence number (FIFO tiebreak / debugging). */
    uint64_t seq = 0;
    /** Canonical shape signature (the affinity routing key). */
    uint64_t signature = 0;
    /**
     * Engine this request was validated and signed against, and the
     * admission epoch it was admitted under (bumped by every blue/green
     * engine swap — serving/server.h). The worker runs the request on
     * THIS engine, and batching never mixes epochs, so a request can
     * never be misrouted to an engine whose signature schema it was not
     * validated against. Null engine (pre-swap tests constructing
     * Pending directly) means "the server's current engine".
     */
    const Sod2Engine* engine = nullptr;
    uint64_t epoch = 0;
    /** Batch-compatibility key: the signature with the batch extent
     *  masked (Sod2Engine::batchCompatKey) — equal keys may share one
     *  padded stacked run. Equals signature when not stackable. */
    uint64_t compatKey = 0;
    /** Batch rows this request contributes when stacked (the bound
     *  leading batch extent; 1 for non-stackable engines). */
    int64_t rows = 1;
    /** Input payload bytes (the admission bytes-budget unit). */
    size_t bytes = 0;
    /**
     * True when this request is a half-open circuit-breaker probe
     * (serving/resilience.h): it was admitted through an open breaker
     * to re-test its signature, runs solo (never coalesced), and its
     * outcome — including being dropped unrun — MUST be reported back
     * to the scoreboard or the breaker wedges half-open.
     */
    bool breakerProbe = false;
};

/** Closeable priority-FIFO handoff between dispatcher and one worker. */
class RequestQueue
{
  public:
    RequestQueue() = default;
    RequestQueue(const RequestQueue&) = delete;
    RequestQueue& operator=(const RequestQueue&) = delete;

    /** Enqueues @p p in priority order. Returns false (leaving @p p
     *  intact) when the queue is closed. */
    bool push(Pending&& p);

    /** Blocks until an item is available or the queue is closed; moves
     *  the highest-priority item into @p out. Returns false only when
     *  closed *and* empty — a closed queue still drains in order. */
    bool pop(Pending* out);

    /**
     * Batch-drain primitive: removes up to @p max queued items whose
     * signature (or, when @p use_compat_key, compatKey) equals @p key
     * AND whose admission epoch equals @p epoch (batches never mix
     * engines across a blue/green swap) and appends them to @p out in
     * queue order. Non-matching items are left exactly where they are,
     * so FIFO order is preserved within the matched signature and the
     * priority order of every other signature is untouched — a
     * higher-priority non-matching request still pops first afterwards.
     *
     * Priority fence: the scan stops before taking a matching item of
     * STRICTLY lower priority than a non-matching item it already
     * passed — batching a low-priority compatible request ahead of an
     * earlier higher-priority incompatible one would execute it first
     * (priority inversion through batching). Equal-priority compatible
     * items behind a non-matching one are still taken (FIFO within the
     * matched signature; cross-signature order within one priority
     * carries no ordering promise).
     *
     * Quarantine: when @p admit is non-empty, an item it rejects is
     * treated exactly like a non-matching one — left in place and
     * counted toward the priority fence. The batcher passes a
     * predicate excluding suspect-signature requests and breaker
     * probes, which must run solo (serving/resilience.h).
     *
     * Never blocks; returns the number of items moved (0 when
     * closed-and-empty or nothing matches).
     */
    size_t peekCompatible(
        uint64_t key, uint64_t epoch, size_t max,
        std::vector<Pending>* out, bool use_compat_key = false,
        const std::function<bool(const Pending&)>& admit = {});

    /** Monotonic count of push() calls that enqueued an item — the
     *  "did anything new arrive?" ticket for waitForArrival(). */
    uint64_t pushCount() const;

    /**
     * Blocks until pushCount() != @p seen, the queue is closed, or
     * @p deadline passes; returns the current pushCount(). The
     * continuous-batching straggler wait: a worker holding a non-full
     * batch sleeps here instead of spinning on peekCompatible.
     */
    uint64_t
    waitForArrival(uint64_t seen,
                   std::chrono::steady_clock::time_point deadline);

    /** Marks the queue closed and wakes the blocked worker. Items
     *  already queued remain poppable (drain-on-close). */
    void close();

    /** Removes and returns everything queued, in queue order — the
     *  non-draining shutdown path (the caller fails each promise). */
    std::deque<Pending> drainNow();

    size_t depth() const;
    bool closed() const;

  private:
    mutable std::mutex mu_;
    std::condition_variable cv_;
    /** Priority-descending, FIFO within a priority. */
    std::deque<Pending> items_;
    bool closed_ = false;
    uint64_t push_count_ = 0;
};

}  // namespace serving
}  // namespace sod2

#endif  // SOD2_SERVING_REQUEST_QUEUE_H_
