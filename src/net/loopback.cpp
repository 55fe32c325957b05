#include "net/transport.hpp"

#include <atomic>
#include <memory>

namespace compadres::net {

namespace {

/// In-process pipe endpoint over two shared FrameRings, one per direction.
/// Frames travel as pooled FrameBuffers through fixed-slot rings, so a
/// steady-state loopback hop never allocates. FrameRing::pop blocks until
/// data or close; close() closes both rings, so the peer's sends fail and
/// its receives drain what is queued, then end.
class LoopbackTransport final : public Transport {
public:
    LoopbackTransport(std::shared_ptr<FrameRing> tx,
                      std::shared_ptr<FrameRing> rx, std::string label)
        : tx_(std::move(tx)), rx_(std::move(rx)), label_(std::move(label)) {}
    ~LoopbackTransport() override { close(); }

    void send_frame(FrameBuffer frame) override {
        if (!tx_->push(std::move(frame))) {
            throw TransportError("loopback peer closed");
        }
        frames_sent_.fetch_add(1, std::memory_order_relaxed);
    }

    std::optional<FrameBuffer> recv_frame() override {
        std::optional<FrameBuffer> frame = rx_->pop();
        if (frame.has_value()) {
            frames_received_.fetch_add(1, std::memory_order_relaxed);
        }
        return frame;
    }

    void close() override {
        tx_->close();
        rx_->close();
    }

    std::string peer_description() const override { return label_; }

    TransportStats stats() const override {
        TransportStats s;
        s.frames_sent = frames_sent_.load(std::memory_order_relaxed);
        s.frames_received = frames_received_.load(std::memory_order_relaxed);
        return s;
    }

private:
    std::shared_ptr<FrameRing> tx_;
    std::shared_ptr<FrameRing> rx_;
    std::string label_;
    std::atomic<std::uint64_t> frames_sent_{0};
    std::atomic<std::uint64_t> frames_received_{0};
};

} // namespace

std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>>
make_loopback_pair(std::size_t queue_capacity) {
    auto a_to_b = std::make_shared<FrameRing>(queue_capacity);
    auto b_to_a = std::make_shared<FrameRing>(queue_capacity);
    return {std::make_unique<LoopbackTransport>(a_to_b, b_to_a, "loopback:a"),
            std::make_unique<LoopbackTransport>(b_to_a, a_to_b, "loopback:b")};
}

} // namespace compadres::net
