#include "ledger.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench::ledger {

namespace detail {

Arena g_arena;
thread_local Cursor t_cursor;

void claim_block() noexcept {
    Cursor& c = t_cursor;
    c.generation = g_arena.generation.load(std::memory_order_relaxed);
    c.cur = c.end = nullptr;
    const std::size_t b = g_arena.next_block.fetch_add(1, std::memory_order_relaxed);
    if ((b + 1) * kBlock > g_arena.capacity) return;
    c.cur = g_arena.spans.get() + b * kBlock;
    c.end = c.cur + kBlock;
}

} // namespace detail

void start(std::size_t capacity) {
    using detail::g_arena;
    capacity = (capacity + detail::kBlock - 1) / detail::kBlock * detail::kBlock;
    g_arena.spans = std::make_unique<Span[]>(capacity);
    g_arena.capacity = capacity;
    g_arena.next_block.store(0);
    g_arena.dropped.store(0);
    g_arena.generation.fetch_add(1);
    g_arena.on.store(true, std::memory_order_release);
}

void stop() noexcept { detail::g_arena.on.store(false); }

std::vector<Span> collect() {
    using detail::g_arena;
    std::vector<Span> out;
    const std::size_t used = std::min(
        g_arena.next_block.load() * detail::kBlock, g_arena.capacity);
    for (std::size_t i = 0; i < used; ++i) {
        if (g_arena.spans[i].kind != kEmpty) out.push_back(g_arena.spans[i]);
    }
    g_arena.spans.reset();
    g_arena.capacity = 0;
    std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
        return a.op != b.op ? a.op < b.op : a.t0 < b.t0;
    });
    return out;
}

std::uint64_t dropped() noexcept { return detail::g_arena.dropped.load(); }

void Reconciler::add(std::int64_t latency_ns, std::span<const std::int64_t> segments_ns) {
    latency_.push_back(latency_ns);
    for (std::size_t i = 0; i < segments_.size(); ++i) {
        segments_[i].push_back(segments_ns[i]);
    }
}

void Reconciler::report(Result& result) const {
    const std::uint64_t complete = latency_.size();
    const double complete_pct = 100.0 * ratio(complete, complete + incomplete_);
    std::vector<std::int64_t> latency = latency_;
    const double op = quantile(latency, 0.5);
    double attributed = 0;
    for (std::vector<std::int64_t> seg : segments_) attributed += quantile(seg, 0.5);
    const double unattributed_pct = op > 0 ? 100.0 * (op - attributed) / op : 100.0;
    result.add("ledger.unattributed_pct", unattributed_pct, "%");
    result.add("ledger.complete_pct", complete_pct, "%");
    result.note("ledger.complete_ops", static_cast<double>(complete));
    if (complete_pct < 90.0) {
        result.reject("fewer than 90% of traced operations have a complete ledger");
    }
    if (std::abs(unattributed_pct) > 10.0) {
        result.reject("the ledger leaves more than 10% of the median operation unattributed");
    }
}

void dump(const std::vector<Span>& spans, const std::string& path,
          std::size_t limit) {
    if (path.empty()) return;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    std::fprintf(f, "op,kind,parent,tag,t0_ns,t1_ns\n");
    const std::size_t n = std::min(limit, spans.size());
    for (std::size_t i = 0; i < n; ++i) {
        const Span& s = spans[i];
        std::fprintf(f, "%llu,%u,%u,%u,%lld,%lld\n",
                     static_cast<unsigned long long>(s.op), s.kind, s.parent,
                     s.tag, static_cast<long long>(s.t0),
                     static_cast<long long>(s.t1));
    }
    std::fclose(f);
}

} // namespace perfbench::ledger
