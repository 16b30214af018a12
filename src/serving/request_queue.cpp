#include "serving/request_queue.h"

#include <algorithm>
#include <utility>

namespace sod2 {
namespace serving {

bool
RequestQueue::push(Pending&& p)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (closed_)
            return false;
        // First position whose priority is strictly lower: inserting
        // there keeps the deque priority-descending and, because pushes
        // arrive in admission order, FIFO within each priority.
        auto it = std::find_if(items_.begin(), items_.end(),
                               [&](const Pending& q) {
                                   return q.priority < p.priority;
                               });
        items_.insert(it, std::move(p));
        ++push_count_;
    }
    // notify_all, not notify_one: both a pop()-blocked worker and a
    // waitForArrival()-blocked worker may be parked on this cv.
    cv_.notify_all();
    return true;
}

size_t
RequestQueue::peekCompatible(uint64_t key, uint64_t epoch, size_t max,
                             std::vector<Pending>* out, bool use_compat_key,
                             const std::function<bool(const Pending&)>& admit)
{
    std::lock_guard<std::mutex> lock(mu_);
    size_t moved = 0;
    // The deque is priority-descending, so the FIRST non-matching item
    // passed has the highest priority of all passed items; a later
    // matching item of strictly lower priority must stay queued (it
    // would otherwise execute ahead of that higher-priority request —
    // priority inversion through batching).
    bool passed_nonmatching = false;
    int passed_priority = 0;
    for (auto it = items_.begin(); it != items_.end() && moved < max;) {
        uint64_t item_key = use_compat_key ? it->compatKey : it->signature;
        if (item_key == key && it->epoch == epoch &&
            (!admit || admit(*it))) {
            if (passed_nonmatching && it->priority < passed_priority)
                break;
            out->push_back(std::move(*it));
            it = items_.erase(it);
            ++moved;
        } else {
            if (!passed_nonmatching) {
                passed_nonmatching = true;
                passed_priority = it->priority;
            }
            ++it;
        }
    }
    return moved;
}

uint64_t
RequestQueue::pushCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return push_count_;
}

uint64_t
RequestQueue::waitForArrival(uint64_t seen,
                             std::chrono::steady_clock::time_point deadline)
{
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_until(lock, deadline,
                   [&] { return closed_ || push_count_ != seen; });
    return push_count_;
}

bool
RequestQueue::pop(Pending* out)
{
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty())
        return false;  // closed and drained
    *out = std::move(items_.front());
    items_.pop_front();
    return true;
}

void
RequestQueue::close()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        closed_ = true;
    }
    cv_.notify_all();
}

std::deque<Pending>
RequestQueue::drainNow()
{
    std::lock_guard<std::mutex> lock(mu_);
    std::deque<Pending> out;
    out.swap(items_);
    return out;
}

size_t
RequestQueue::depth() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
}

bool
RequestQueue::closed() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
}

}  // namespace serving
}  // namespace sod2
