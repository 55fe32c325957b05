// Outside-in span recorder for the traced run, and the Transport
// decorator that times the wire from the benchmark's side.
//
// Every span is taken by benchmark code around a call into a layer's
// public entry point (handler entry/exit in benchmark components, the
// benchmark's own serializers, the decorator below); nothing inside src/
// is instrumented. Spans live in one preallocated arena that threads
// claim in blocks, so recording is allocation-free and, after a block is
// claimed, touches no shared cache line. The arena is read only after the
// traced rig has been torn down (all recording threads joined).
#pragma once

#include "measure.hpp"
#include "net/transport.hpp"

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace perfbench::ledger {

/// Span kinds across all workloads. 0 marks an unused arena slot.
enum Kind : std::uint16_t {
    kEmpty = 0,
    kOp,          ///< one whole operation as the benchmark timed it
    kGetMessage,  ///< OutPort::get_message
    kSend,        ///< OutPort::send (caller time)
    kHandler,     ///< benchmark handler body, entry to exit
    kServant,     ///< ORB servant body
    kSendFrame,   ///< Transport::send_frame through the decorator
    kRecvFrame,   ///< Transport::recv_frame through the decorator
    kEncode,      ///< benchmark serializer encode body
    kDecode,      ///< benchmark serializer decode body
};

/// Size class carried in Span::tag on the stream (route of the message).
enum SizeTag : std::uint16_t { kTagNone = 0, kTag32B = 1, kTag4KiB = 2 };

struct Span {
    std::uint64_t op = 0;    ///< operation id; spans of one op share it
    std::int64_t t0 = 0;     ///< start, ns (CLOCK_MONOTONIC)
    std::int64_t t1 = 0;     ///< end, ns (t0 == t1 for a point event)
    std::uint16_t kind = kEmpty;
    std::uint16_t parent = kEmpty; ///< kind of the span that caused this one
    std::uint16_t tag = 0;   ///< hop index / size class / side
    std::uint16_t pad = 0;
};

namespace detail {
inline constexpr std::size_t kBlock = 4096;
struct Arena {
    std::unique_ptr<Span[]> spans;
    std::size_t capacity = 0;
    std::atomic<std::size_t> next_block{0};
    std::atomic<std::uint32_t> generation{0};
    std::atomic<bool> on{false};
    std::atomic<std::uint64_t> dropped{0};
};
extern Arena g_arena;
struct Cursor {
    Span* cur = nullptr;
    Span* end = nullptr;
    std::uint32_t generation = ~0u;
};
extern thread_local Cursor t_cursor;
void claim_block() noexcept;
} // namespace detail

/// True while a traced leg is recording. Acquire pairs with start()'s
/// release, so a thread that sees recording on also sees the arena.
inline bool on() noexcept {
    return detail::g_arena.on.load(std::memory_order_acquire);
}

/// Record one span (no-op unless a traced leg is recording).
inline void record(std::uint64_t op, Kind kind, Kind parent, std::uint16_t tag,
                   std::int64_t t0, std::int64_t t1) noexcept {
    if (!on()) return;
    detail::Cursor& c = detail::t_cursor;
    if (c.generation != detail::g_arena.generation.load(std::memory_order_relaxed) ||
        c.cur == c.end) {
        detail::claim_block();
        if (c.cur == nullptr) {
            detail::g_arena.dropped.fetch_add(1, std::memory_order_relaxed);
            return;
        }
    }
    *c.cur++ = Span{op, t0, t1, kind, parent, tag, 0};
}

/// A clock read only while tracing (0 otherwise), so untraced code paths
/// shared with the traced leg pay one relaxed load.
inline std::int64_t stamp() noexcept { return on() ? now_ns() : 0; }

/// Allocate (zeroed) room for `capacity` spans and start recording.
void start(std::size_t capacity);
/// Stop recording. Call collect() only once every recording thread has
/// been joined or quiesced.
void stop() noexcept;
/// All spans of the last leg, sorted by (op, t0). Frees the arena.
std::vector<Span> collect();
std::uint64_t dropped() noexcept;

/// Calls `fn(ops_spans)` once per operation, with the std::span of its
/// spans in `spans` (as collect() returns them, sorted by op).
template <typename Fn>
void for_each_op(const std::vector<Span>& spans, Fn&& fn) {
    for (std::size_t i = 0; i < spans.size();) {
        std::size_t j = i;
        while (j < spans.size() && spans[j].op == spans[i].op) ++j;
        fn(std::span<const Span>(spans.data() + i, j - i));
        i = j;
    }
}

/// Write the first `limit` spans as CSV (op,kind,parent,tag,t0_ns,t1_ns).
void dump(const std::vector<Span>& spans, const std::string& path,
          std::size_t limit);

/// Reconciles a traced leg with its own operations. Each named layer
/// segment is reduced to its median over all operations on its own, and
/// those medians must add up to the median operation latency; glue between
/// segments that no layer metric names counts as unattributed. An operation
/// whose op span was recorded but some segment was not counts against the
/// ledger's completeness.
class Reconciler {
public:
    explicit Reconciler(std::size_t segments) : segments_(segments) {}
    /// One operation with every segment, in a fixed order.
    void add(std::int64_t latency_ns, std::span<const std::int64_t> segments_ns);
    /// One operation missing a segment.
    void incomplete() noexcept { ++incomplete_; }
    /// Adds ledger.unattributed_pct ((median latency - sum of segment
    /// medians) / median latency) and ledger.complete_pct, and rejects the
    /// run when fewer than 90% of the operations were complete or more
    /// than 10% of the median operation is unattributed, either way.
    void report(Result& result) const;

private:
    std::vector<std::int64_t> latency_;
    std::vector<std::vector<std::int64_t>> segments_;
    std::uint64_t incomplete_ = 0;
};

/// Forwarding net::Transport that records a span around send_frame and
/// recv_frame. Every virtual forwards to the wrapped wire, so reactor
/// registration, frame pools, coalescing and close ordering are exactly
/// those of the wire itself; lane(i) of a single-lane wire returns the
/// decorator so readers that iterate lanes still go through it.
class TracedTransport final : public compadres::net::Transport {
public:
    /// `op_of` names the operation a frame belongs to at call time, and
    /// `tag_of` its size class (both read on the calling thread; without
    /// `tag_of` the span carries `side`). recv_frame is timed only when
    /// `time_recv` is set: a reader thread that blocks between frames
    /// belongs to no operation.
    using OpFn = std::uint64_t (*)() noexcept;
    using TagFn = std::uint16_t (*)() noexcept;

    TracedTransport(std::unique_ptr<compadres::net::Transport> inner,
                    std::uint16_t side, OpFn op_of, TagFn tag_of, bool time_recv)
        : inner_(std::move(inner)), side_(side), op_of_(op_of), tag_of_(tag_of),
          time_recv_(time_recv) {}

    void send_frame(compadres::net::FrameBuffer frame) override {
        const std::uint64_t op = op_of_();
        const std::uint16_t tag = tag_of_ != nullptr ? tag_of_() : side_;
        const std::int64_t t0 = now_ns();
        inner_->send_frame(std::move(frame));
        record(op, kSendFrame, kEmpty, tag, t0, now_ns());
    }
    std::optional<compadres::net::FrameBuffer> recv_frame() override {
        if (!time_recv_) return inner_->recv_frame();
        const std::int64_t t0 = now_ns();
        auto frame = inner_->recv_frame();
        record(op_of_(), kRecvFrame, kEmpty, side_, t0, now_ns());
        return frame;
    }
    void close() override { inner_->close(); }
    std::string peer_description() const override {
        return inner_->peer_description();
    }
    compadres::net::TransportStats stats() const override { return inner_->stats(); }
    compadres::net::ReactorHook* reactor_hook() noexcept override {
        return inner_->reactor_hook();
    }
    void prepare_close() override { inner_->prepare_close(); }
    compadres::net::FrameBufferPool& frame_pool() noexcept override {
        return inner_->frame_pool();
    }
    void set_frame_pool(compadres::net::FrameBufferPool* pool) noexcept override {
        inner_->set_frame_pool(pool);
    }
    void set_coalescing(bool on) override { inner_->set_coalescing(on); }
    std::size_t lane_count() const noexcept override { return inner_->lane_count(); }
    compadres::net::Transport& lane(std::size_t i) noexcept override {
        compadres::net::Transport& l = inner_->lane(i);
        return &l == inner_.get() ? *this : l;
    }

private:
    std::unique_ptr<compadres::net::Transport> inner_;
    std::uint16_t side_;
    OpFn op_of_;
    TagFn tag_of_;
    bool time_recv_;
};

} // namespace perfbench::ledger
