#include "spans.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

SpanLog::SpanLog(bool enabled) : enabled_(enabled), origin_(now()) {}

double
SpanLog::toUs(double steady_seconds) const
{
    return (steady_seconds - origin_) * 1e6;
}

uint64_t
SpanLog::add(const std::string& name, uint64_t request, uint64_t parent,
             double start, double end)
{
    if (!enabled_)
        return 0;
    Span s;
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.request = request;
    s.name = name;
    s.startUs = toUs(start);
    s.durUs = (end - start) * 1e6;
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

bool
SpanLog::writeChromeJson(const std::string& path) const
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fputs("{\"traceEvents\":[\n", f);
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        // One lane per request keeps a request's spans stacked.
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                     "\"id\":%llu,\"parent\":%llu,\"request\":%llu}}\n",
                     i ? "," : "", s.name.c_str(),
                     static_cast<unsigned long long>(s.request),
                     s.startUs, s.durUs,
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.request));
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
}

}  // namespace perfbench
