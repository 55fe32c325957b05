// The shm band ring in-process: ShmRingProducer and ShmRingConsumer over
// a heap buffer (capacity 4, a 4 KiB arena), with no segment, futex or
// fork. An exhaustive part walks every interleaving of push, pop,
// out-of-order release and a peer scribble up to a fixed depth; a seeded
// part runs longer random walks. After every step a model checks that the
// tail stays contiguous, that the retire window never aliases a pinned
// slot, that delivery is exactly-once and in order, and that no popped
// view leaves the arena. Every scribble must fail closed.
#include "net/shm_ring.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <memory>
#include <random>
#include <string>
#include <vector>

using namespace compadres;
using net::ShmRingConsumer;
using net::ShmRingGeometry;
using net::ShmRingProducer;
using net::shm_detail::SegDir;
using net::shm_detail::SegSlot;
using net::shm_detail::align8;
using Pop = ShmRingConsumer::Pop;

namespace {

constexpr std::uint32_t kCapacity = 4;
constexpr std::uint32_t kArenaBytes = 4096;
constexpr std::uint32_t kMaxFrame = kArenaBytes / 2;
constexpr ShmRingGeometry kGeometry{kCapacity, kArenaBytes, kMaxFrame};
static_assert(kGeometry.valid());

/// The exhaustive sizes: a small frame, and a large one whose third in a
/// row no longer fits before the arena end (3 × 1400 > 4096), which
/// forces the wrap skip.
constexpr std::uint32_t kSmall = 40;
constexpr std::uint32_t kLarge = 1400;

enum class Scribble { kOutOfArenaSlot, kOversizeLength, kOverrunHead };

std::uint8_t fill_byte(std::uint32_t seq) {
    return static_cast<std::uint8_t>(seq * 31u + 7u);
}

/// A frame's bytes: its sequence number, then a fill derived from it.
void write_frame(std::uint8_t* dst, std::uint32_t seq, std::uint32_t len) {
    std::memset(dst, fill_byte(seq), len);
    std::memcpy(dst, &seq, std::min<std::size_t>(len, sizeof seq));
}

bool frame_intact(const std::uint8_t* p, std::uint32_t seq,
                  std::uint32_t len) {
    static std::uint8_t want[kMaxFrame];
    write_frame(want, seq, len);
    return std::memcmp(p, want, len) == 0;
}

/// One ring's memory, both of its ends, and a model of what they must do.
class World {
public:
    World()
        : arena_(std::make_unique<std::uint64_t[]>(kArenaBytes / 8)),
          tx_(dir_, slots_, arena(), kGeometry, dir_),
          rx_(dir_, slots_, arena(), kGeometry) {}

    SegDir& dir() { return dir_; }
    std::size_t pinned() const {
        return static_cast<std::size_t>(
            std::count_if(window_.begin(), window_.end(),
                          [](const Held& h) { return !h.released; }));
    }

    /// Push one `len`-byte frame. The model predicts whether it fits and
    /// where (the wrap skip included). Returns what publish() returned.
    bool push(std::uint32_t len) {
        const auto seq = static_cast<std::uint32_t>(published_.size());
        const std::uint64_t room = kArenaBytes - arena_head_ % kArenaBytes;
        const std::uint64_t skip = room < len ? room : 0;
        const bool fits =
            seq - retired_ < kCapacity &&
            arena_head_ + skip + align8(len) - retired_end() <= kArenaBytes;
        std::uint8_t* dst = tx_.try_reserve(len);
        EXPECT_EQ(dst != nullptr, fits) << "push of " << len << " bytes";
        if (dst == nullptr || !fits) return false;
        const std::uint64_t offset = (arena_head_ + skip) % kArenaBytes;
        EXPECT_EQ(dst, arena() + offset) << "wrap skip mispredicted";
        write_frame(dst, seq, len);
        const bool claimed = tx_.publish(len);
        arena_head_ += skip + align8(len);
        published_.push_back(
            Frame{len, static_cast<std::uint32_t>(offset), arena_head_});
        return claimed;
    }

    /// Pop one frame: the next published one, intact, or kEmpty.
    void pop() {
        ShmRingConsumer::View v;
        const Pop r = rx_.try_pop(v);
        if (delivered_ == published_.size()) {
            EXPECT_EQ(r, Pop::kEmpty);
            return;
        }
        ASSERT_EQ(r, Pop::kFrame);
        expect_next_frame(v);
        window_.push_back(Held{v, delivered_, false});
        ++delivered_;
    }

    /// Release the `i`-th still-pinned frame in pop order, then retire.
    /// Returns what retire() returned.
    bool release(std::size_t i) {
        auto it = window_.begin();
        for (;; ++it) {
            if (!it->released && i-- == 0) break;
        }
        it->released = true;
        rx_.release(it->view.index);
        const bool claimed = rx_.retire();
        while (!window_.empty() && window_.front().released) {
            window_.pop_front();
            ++retired_;
        }
        return claimed;
    }

    /// The peer scribbles the ring. The consumer may still deliver the
    /// honest frames published before the scribble, in order; then it
    /// must report corrupt, consume nothing, and keep reporting it.
    void scribble(Scribble s) {
        const auto head = static_cast<std::uint32_t>(published_.size());
        if (s == Scribble::kOverrunHead) {
            dir_.head.store(retired_ + kCapacity + 1);
        } else {
            slots_[head % kCapacity] =
                s == Scribble::kOutOfArenaSlot
                    ? SegSlot{kArenaBytes - 16, 64}
                    : SegSlot{0, kMaxFrame + 8};
            dir_.head.store(head + 1);
            SegSlot read_back;
            EXPECT_FALSE(tx_.read(head, read_back))
                << "replay read accepted a scribbled slot";
        }
        bool corrupt = false;
        const std::uint32_t honest = head - delivered_;
        for (std::uint32_t n = 0; n <= honest && !corrupt; ++n) {
            ShmRingConsumer::View v;
            const Pop r = rx_.try_pop(v);
            if (r == Pop::kCorrupt) {
                corrupt = true;
                break;
            }
            ASSERT_EQ(r, Pop::kFrame) << "scribble reported as empty";
            ASSERT_LT(delivered_, head) << "delivered the scribbled entry";
            expect_next_frame(v);
            window_.push_back(Held{v, delivered_, false});
            ++delivered_;
        }
        ASSERT_TRUE(corrupt) << "scribble never reported";
        const std::uint32_t pinned = rx_.pinned();
        for (int again = 0; again < 3; ++again) {
            ShmRingConsumer::View v;
            EXPECT_EQ(rx_.try_pop(v), Pop::kCorrupt);
        }
        EXPECT_EQ(rx_.pinned(), pinned) << "a corrupt pop consumed a slot";
    }

    /// The invariants, checked after every step.
    void check() const {
        // The tail stays contiguous: it covers exactly the released prefix
        // of what was popped, and the arena tail ends where the last
        // retired frame ended (wrap skips included).
        EXPECT_EQ(dir_.tail.load(), retired_);
        EXPECT_EQ(dir_.arena_tail.load(), retired_end());
        EXPECT_EQ(rx_.pinned(), window_.size());
        EXPECT_EQ(dir_.head.load(), published_.size());
        EXPECT_LE(published_.size() - retired_, kCapacity);
        // The retire window never aliases a pinned slot: every frame not
        // yet retired (popped and pinned, or still queued) holds its own
        // bytes, and the producer reads its descriptor back unchanged.
        for (std::uint32_t seq = retired_; seq < published_.size(); ++seq) {
            const Frame& f = published_[seq];
            EXPECT_TRUE(frame_intact(arena() + f.offset, seq, f.len))
                << "frame " << seq << " was overwritten";
            SegSlot s;
            EXPECT_TRUE(tx_.read(seq, s));
            EXPECT_EQ(s.offset, f.offset);
            EXPECT_EQ(s.len, f.len);
        }
        // No popped view leaves the arena.
        for (const Held& h : window_) {
            EXPECT_GE(h.view.data, arena());
            EXPECT_LE(h.view.data + h.view.len, arena() + kArenaBytes);
        }
    }

private:
    struct Frame {
        std::uint32_t len;
        std::uint32_t offset;
        std::uint64_t end; ///< producer arena position after this frame
    };
    struct Held {
        ShmRingConsumer::View view;
        std::uint32_t seq;
        bool released;
    };

    std::uint8_t* arena() const {
        return reinterpret_cast<std::uint8_t*>(arena_.get());
    }
    std::uint64_t retired_end() const {
        return retired_ == 0 ? 0 : published_[retired_ - 1].end;
    }
    /// Exactly once and in order: the view is the next published frame.
    void expect_next_frame(const ShmRingConsumer::View& v) const {
        const Frame& f = published_[delivered_];
        EXPECT_EQ(v.len, f.len);
        EXPECT_EQ(v.data, arena() + f.offset);
        EXPECT_EQ(v.index, delivered_ % kCapacity);
        EXPECT_TRUE(frame_intact(v.data, delivered_, v.len));
    }

    SegDir dir_{};
    SegSlot slots_[kCapacity] = {};
    std::unique_ptr<std::uint64_t[]> arena_; ///< 8-byte aligned
    ShmRingProducer tx_;
    ShmRingConsumer rx_;

    std::vector<Frame> published_; ///< indexed by sequence number
    std::uint64_t arena_head_ = 0;
    std::uint32_t delivered_ = 0;
    std::uint32_t retired_ = 0;
    std::deque<Held> window_; ///< popped, not yet retired; oldest first
};

enum class Step : std::uint8_t {
    kPushSmall,
    kPushLarge,
    kPop,
    kRelease0,
    kRelease1,
    kRelease2,
    kRelease3,
    kScribbleSlot,
    kScribbleLength,
    kScribbleHead,
};
constexpr int kSteps = 10;

bool is_scribble(Step s) { return s >= Step::kScribbleSlot; }

bool applicable(const World& w, Step s) {
    if (s >= Step::kRelease0 && s <= Step::kRelease3) {
        return static_cast<std::size_t>(s) -
                   static_cast<std::size_t>(Step::kRelease0) <
               w.pinned();
    }
    return true;
}

void apply(World& w, Step s) {
    switch (s) {
    case Step::kPushSmall:
        EXPECT_FALSE(w.push(kSmall)) << "publish claimed an absent waiter";
        break;
    case Step::kPushLarge:
        EXPECT_FALSE(w.push(kLarge)) << "publish claimed an absent waiter";
        break;
    case Step::kPop:
        w.pop();
        break;
    case Step::kScribbleSlot:
        w.scribble(Scribble::kOutOfArenaSlot);
        break;
    case Step::kScribbleLength:
        w.scribble(Scribble::kOversizeLength);
        break;
    case Step::kScribbleHead:
        w.scribble(Scribble::kOverrunHead);
        break;
    default:
        EXPECT_FALSE(w.release(static_cast<std::size_t>(s) -
                               static_cast<std::size_t>(Step::kRelease0)))
            << "retire claimed an absent waiter";
        break;
    }
}

std::string describe(const std::vector<Step>& path) {
    static const char* const kNames[kSteps] = {
        "push40", "push1400", "pop",         "release0",    "release1",
        "release2", "release3", "scribble-slot", "scribble-len",
        "scribble-head"};
    std::string out;
    for (Step s : path) {
        out += kNames[static_cast<int>(s)];
        out += ' ';
    }
    return out;
}

/// Depth-first over every applicable step sequence. Each node replays its
/// path on a fresh world (the ring memory is not copyable mid-flight) and
/// checks the invariants after its last step; a scribble ends a path.
void explore(std::vector<Step>& path, int depth_left, std::uint64_t& paths) {
    for (int i = 0; i < kSteps; ++i) {
        const auto step = static_cast<Step>(i);
        World w;
        for (Step s : path) apply(w, s);
        if (!applicable(w, step)) continue;
        path.push_back(step);
        apply(w, step);
        if (!is_scribble(step)) w.check(); // a scribble checks itself
        ++paths;
        if (::testing::Test::HasFailure()) {
            ADD_FAILURE() << "after: " << describe(path);
            return;
        }
        if (!is_scribble(step) && depth_left > 1) {
            explore(path, depth_left - 1, paths);
        }
        path.pop_back();
        if (::testing::Test::HasFailure()) return;
    }
}

} // namespace

TEST(ShmRing, GeometryRuleMatchesTheSegmentBounds) {
    EXPECT_TRUE((ShmRingGeometry{2, 4096, 64}.valid()));
    EXPECT_TRUE((ShmRingGeometry{1u << 20, 8192, 4096}.valid()));
    EXPECT_FALSE((ShmRingGeometry{3, 4096, 64}.valid()));       // not pow2
    EXPECT_FALSE((ShmRingGeometry{1, 4096, 64}.valid()));       // too few
    EXPECT_FALSE((ShmRingGeometry{1u << 21, 4096, 64}.valid())); // token
    EXPECT_FALSE((ShmRingGeometry{4, 0, 64}.valid()));          // no arena
    EXPECT_FALSE((ShmRingGeometry{4, 4100, 64}.valid()));       // unaligned
    EXPECT_FALSE((ShmRingGeometry{4, 4096, 63}.valid()));
    EXPECT_FALSE((ShmRingGeometry{4, 4096, 2049}.valid()));     // > arena/2
}

TEST(ShmRing, PublishAndRetireClaimARegisteredWaiterOnce) {
    World w;
    w.dir().data_waiters.store(1);
    EXPECT_TRUE(w.push(kSmall));
    EXPECT_EQ(w.dir().data_waiters.load(), 0u);
    EXPECT_FALSE(w.push(kSmall)); // claimed already: no second wake
    w.pop();
    w.pop();
    w.dir().space_waiters.store(1);
    EXPECT_FALSE(w.release(1)) << "retired past a pinned slot";
    EXPECT_TRUE(w.release(0));
    EXPECT_EQ(w.dir().space_waiters.load(), 0u);
    w.check();
}

TEST(ShmRing, ExhaustiveInterleavingsKeepTheInvariants) {
    // Two starts: a fresh ring, and one that has carried two large frames
    // through, so its arena head sits where the next large frame must skip
    // to the start and the skip's retire lies within reach.
    constexpr int kDepth = 8;
    const std::vector<Step> starts[] = {
        {},
        {Step::kPushLarge, Step::kPushLarge, Step::kPop, Step::kPop,
         Step::kRelease0, Step::kRelease0}};
    std::uint64_t paths = 0;
    for (std::vector<Step> path : starts) explore(path, kDepth, paths);
    RecordProperty("paths", std::to_string(paths));
    EXPECT_GT(paths, 10000u);
}

class ShmRingSeeded : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ShmRingSeeded, RandomWalkKeepsTheInvariants) {
    std::mt19937 rng(GetParam());
    auto w = std::make_unique<World>();
    std::uint64_t pushes = 0;
    for (int step = 0; step < 20000; ++step) {
        const std::uint32_t dice = rng() % 1000;
        if (dice < 3) {
            w->scribble(static_cast<Scribble>(rng() % 3));
            w = std::make_unique<World>(); // a new peer, a new ring
        } else if (dice < 400) {
            // Sizes from empty to the frame bound hit every wrap position,
            // not only the exhaustive part's two.
            w->push(rng() % (kMaxFrame + 1));
            ++pushes;
        } else if (dice < 700) {
            w->pop();
        } else if (w->pinned() > 0) {
            w->release(rng() % w->pinned());
        }
        w->check();
        if (HasFailure()) {
            ADD_FAILURE() << "at step " << step;
            break;
        }
    }
    EXPECT_GT(pushes, 5000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShmRingSeeded, ::testing::Values(1u, 2u, 3u));
