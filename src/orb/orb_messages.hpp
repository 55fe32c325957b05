// Message types flowing through the ORB component pipelines.
//
// Both are flat, pool-friendly value types. The completion pointer in
// OrbRequest points at a record owned by the blocked caller — the C++
// analogue of a reference into an outer-lived area, which Table 1 permits
// from any scope.
#pragma once

#include "net/transport.hpp"

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <vector>

namespace compadres::orb {

/// Filled by the reply path; waited on by the invoking thread.
struct Completion {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    std::uint32_t status = 0; ///< cdr::ReplyStatus value
    std::vector<std::uint8_t> reply;

    /// Notifies under `mu`: the waiter owns this record on its stack and
    /// may destroy it as soon as it observes `done`, so `cv` must not be
    /// touched after the lock is released.
    void complete(std::uint32_t s, const std::uint8_t* data, std::size_t n) {
        std::lock_guard lk(mu);
        status = s;
        reply.assign(data, data + n);
        done = true;
        cv.notify_one();
    }

    void wait() {
        std::unique_lock lk(mu);
        cv.wait(lk, [&] { return done; });
    }

    /// True if completed within the deadline; false on timeout.
    bool wait_for(std::chrono::milliseconds timeout) {
        std::unique_lock lk(mu);
        return cv.wait_for(lk, timeout, [&] { return done; });
    }
};

/// Client-side pipeline message: ORB -> Transport -> MessageProcessing.
struct OrbRequest {
    static constexpr std::size_t kKeyCapacity = 64;
    static constexpr std::size_t kOpCapacity = 32;
    static constexpr std::size_t kPayloadCapacity = 2048;

    std::uint32_t request_id = 0;
    std::array<char, kKeyCapacity> object_key{};
    std::size_t key_len = 0;
    std::array<char, kOpCapacity> operation{};
    std::size_t op_len = 0;
    std::array<std::uint8_t, kPayloadCapacity> payload{};
    std::size_t payload_len = 0;
    /// Null for oneway requests (no reply expected, nobody waiting).
    Completion* completion = nullptr;
    /// True for a GIOP LocateRequest probe (ping): no payload, the reply
    /// is a LocateReply whose status lands in completion->reply[0].
    bool locate = false;

    void set_key(std::string_view key) {
        key_len = std::min(key.size(), kKeyCapacity);
        std::memcpy(object_key.data(), key.data(), key_len);
    }
    void set_op(std::string_view op) {
        op_len = std::min(op.size(), kOpCapacity);
        std::memcpy(operation.data(), op.data(), op_len);
    }
    void set_payload(const std::uint8_t* data, std::size_t n) {
        payload_len = std::min(n, kPayloadCapacity);
        std::memcpy(payload.data(), data, payload_len);
    }

    /// Relay copy that moves only the filled prefixes, not the full
    /// 2 KiB struct (`*this = other` copies every capacity byte).
    void copy_from(const OrbRequest& other) {
        request_id = other.request_id;
        key_len = other.key_len;
        std::memcpy(object_key.data(), other.object_key.data(), key_len);
        op_len = other.op_len;
        std::memcpy(operation.data(), other.operation.data(), op_len);
        payload_len = other.payload_len;
        std::memcpy(payload.data(), other.payload.data(), payload_len);
        completion = other.completion;
        locate = other.locate;
    }
};

/// Server-side pipeline message: one raw GIOP frame, plus the wire to send
/// the reply on (the reply wire outlives every request in flight).
struct GiopFrame {
    static constexpr std::size_t kCapacity = 4096;
    std::array<std::uint8_t, kCapacity> bytes{};
    std::size_t length = 0;
    net::Transport* reply_wire = nullptr;

    void assign(const std::uint8_t* data, std::size_t n) {
        length = std::min(n, kCapacity);
        std::memcpy(bytes.data(), data, length);
    }

    /// Relay copy of the filled prefix only (`*this = other` would copy
    /// the whole 4 KiB array regardless of frame length).
    void copy_from(const GiopFrame& other) {
        assign(other.bytes.data(), other.length);
        reply_wire = other.reply_wire;
    }
};

/// Registers OrbRequest/GiopFrame in the global MessageTypeRegistry under
/// their CDL names. Idempotent.
void register_orb_message_types();

} // namespace compadres::orb
