#include "orb/client_orb.hpp"
#include "orb/server_orb.hpp"

#include "cdr/giop.hpp"
#include "core/registry.hpp"
#include "net/reactor.hpp"
#include "rt/thread.hpp"

#include <atomic>

namespace compadres::orb {

void register_orb_message_types() {
    auto& reg = core::MessageTypeRegistry::global();
    reg.register_type<OrbRequest>("OrbRequest");
    reg.register_type<GiopFrame>("GiopFrame");
}

namespace {

core::InPortConfig single_thread_port(std::size_t buffer = 16) {
    core::InPortConfig cfg;
    cfg.buffer_size = buffer;
    cfg.strategy = core::ThreadpoolStrategy::kDedicated;
    cfg.min_threads = 1;
    cfg.max_threads = 1;
    return cfg;
}

// ---------------------------------------------------------------- client

/// Level-0 (immortal) ORB component: just the Out port the API sends into.
class ClientOrbComponent final : public core::Component {
public:
    explicit ClientOrbComponent(const core::ComponentContext& ctx)
        : core::Component(ctx) {
        add_out_port<OrbRequest>("toTransport", "OrbRequest");
    }
};

/// Level-2 MessageProcessing: marshals, exchanges, demarshals, completes.
class ClientMessageProcessing final : public core::Component {
public:
    ClientMessageProcessing(const core::ComponentContext& ctx,
                            net::Transport& wire)
        : core::Component(ctx), wire_(&wire) {
        add_in_port<OrbRequest>(
            "request", "OrbRequest", single_thread_port(),
            [this](OrbRequest& msg, core::Smm&) { process(msg); });
    }

private:
    void process(OrbRequest& msg) {
        Completion* completion = msg.completion;
        try {
            if (msg.locate) {
                process_locate(msg, *completion);
                return;
            }
            // Encode straight into pooled storage: headers and payload go
            // through one stream, and the filled buffer ships without a
            // copy (wire-identical to the old encode_request frame).
            cdr::OutputStream out(net::FrameBufferPool::global().acquire_storage(
                cdr::GiopHeader::kSize + 64 + msg.key_len + msg.op_len +
                msg.payload_len));
            const std::size_t len_offset = cdr::begin_request_payload(
                out, msg.request_id, completion != nullptr,
                std::string_view(msg.object_key.data(), msg.key_len),
                std::string_view(msg.operation.data(), msg.op_len));
            out.write_raw(msg.payload.data(), msg.payload_len);
            cdr::finish_payload(out, len_offset);
            wire_->send_frame(
                net::FrameBufferPool::global().adopt(out.take_buffer()));
            if (completion == nullptr) return; // oneway: fire and forget

            const auto reply_frame = wire_->recv_frame();
            if (!reply_frame.has_value()) {
                throw net::TransportError("connection closed awaiting reply");
            }
            const cdr::DecodedReply reply =
                cdr::decode_reply(reply_frame->data(), reply_frame->size());
            if (reply.header.request_id != msg.request_id) {
                throw OrbError("reply correlation mismatch: sent " +
                               std::to_string(msg.request_id) + ", got " +
                               std::to_string(reply.header.request_id));
            }
            completion->complete(
                static_cast<std::uint32_t>(reply.header.status), reply.payload,
                reply.payload_len);
        } catch (const std::exception&) {
            // Surface transport/marshal failures as SYSTEM_EXCEPTION so the
            // invoking thread never blocks forever.
            if (completion != nullptr) {
                completion->complete(
                    static_cast<std::uint32_t>(cdr::ReplyStatus::kSystemException),
                    nullptr, 0);
            }
            throw; // also counted by the dispatcher's error counter
        }
    }

    void process_locate(OrbRequest& msg, Completion& completion) {
        cdr::LocateRequestHeader header;
        header.request_id = msg.request_id;
        header.object_key.assign(msg.object_key.data(), msg.key_len);
        wire_->send_frame(cdr::encode_locate_request(header));
        const auto reply_frame = wire_->recv_frame();
        if (!reply_frame.has_value()) {
            throw net::TransportError("connection closed awaiting LocateReply");
        }
        const cdr::LocateReplyHeader reply =
            cdr::decode_locate_reply(reply_frame->data(), reply_frame->size());
        if (reply.request_id != msg.request_id) {
            throw OrbError("LocateReply correlation mismatch");
        }
        const std::uint8_t here =
            reply.status == cdr::LocateStatus::kObjectHere ? 1 : 0;
        completion.complete(
            static_cast<std::uint32_t>(cdr::ReplyStatus::kNoException), &here, 1);
    }

    net::Transport* wire_;
};

/// Level-1 Transport: owns the wire and relays ORB requests to its child.
class ClientTransportComponent final : public core::Component {
public:
    ClientTransportComponent(const core::ComponentContext& ctx,
                             std::unique_ptr<net::Transport> wire)
        : core::Component(ctx), wire_(std::move(wire)) {
        add_in_port<OrbRequest>(
            "fromOrb", "OrbRequest", single_thread_port(),
            [this](OrbRequest& msg, core::Smm&) {
                // Relay into the child scope: copy into the pool hosted by
                // *this* component's SMM and forward (the paper's regular,
                // non-shadow port path). Only the filled prefixes move.
                auto& out = out_port_t<OrbRequest>("toMp");
                OrbRequest* fwd = out.get_message();
                fwd->copy_from(msg);
                out.send(fwd, out.default_priority());
            });
        add_out_port<OrbRequest>("toMp", "OrbRequest");
    }

    net::Transport& wire() noexcept { return *wire_; }

    ~ClientTransportComponent() override { wire_->close(); }

private:
    std::unique_ptr<net::Transport> wire_;
};

} // namespace

struct ClientOrb::Impl {
    ClientOrbComponent* orb = nullptr;
    ClientTransportComponent* transport = nullptr;
    ClientMessageProcessing* mp = nullptr;
    std::atomic<std::uint32_t> next_request_id{1};
    std::mutex invoke_mu;
    /// Completions abandoned by invoke_within timeouts, kept alive until
    /// the pipeline writes them (a late reply or a transport error); purged
    /// opportunistically at each invoke.
    std::vector<std::shared_ptr<Completion>> abandoned;

    void purge_abandoned() {
        std::erase_if(abandoned, [](const std::shared_ptr<Completion>& c) {
            std::lock_guard lk(c->mu);
            return c->done;
        });
    }
};

ClientOrb::ClientOrb(std::unique_ptr<net::Transport> wire)
    : impl_(std::make_unique<Impl>()) {
    register_orb_message_types();
    core::RtsjAttributes attrs;
    attrs.immortal_size = 8 * 1024 * 1024;
    attrs.scoped_pools = {{1, 512 * 1024, 2}, {2, 512 * 1024, 2}};
    app_ = std::make_unique<core::Application>("compadres-client-orb", attrs);

    impl_->orb = &app_->create_immortal<ClientOrbComponent>("Orb");
    impl_->transport = &app_->create_scoped<ClientTransportComponent>(
        "Transport", *impl_->orb, 1, std::move(wire));
    impl_->mp = &app_->create_scoped<ClientMessageProcessing>(
        "MessageProcessing", *impl_->transport, 2, impl_->transport->wire());

    // Orb -> Transport (internal: parent to child), Transport -> MP.
    app_->connect(*impl_->orb, "toTransport", *impl_->transport, "fromOrb");
    app_->connect(*impl_->transport, "toMp", *impl_->mp, "request");
    app_->start();
}

ClientOrb::~ClientOrb() {
    // Close the wire first: a MessageProcessing worker blocked in
    // recv_frame (e.g. a request the server never answered) must unblock
    // before Application::shutdown joins the dispatcher threads.
    if (impl_ != nullptr && impl_->transport != nullptr) {
        impl_->transport->wire().close();
    }
    if (app_ != nullptr) app_->shutdown();
}

namespace {

void check_payload_size(std::size_t payload_len) {
    if (payload_len > OrbRequest::kPayloadCapacity) {
        throw OrbError("payload exceeds OrbRequest capacity");
    }
}

std::vector<std::uint8_t> take_reply(Completion& completion,
                                     const std::string& object_key,
                                     const std::string& operation) {
    if (completion.status !=
        static_cast<std::uint32_t>(cdr::ReplyStatus::kNoException)) {
        throw OrbError("invocation '" + operation + "' on '" + object_key +
                       "' failed with reply status " +
                       std::to_string(completion.status));
    }
    return std::move(completion.reply);
}

} // namespace

std::vector<std::uint8_t> ClientOrb::invoke(const std::string& object_key,
                                            const std::string& operation,
                                            const std::uint8_t* payload,
                                            std::size_t payload_len,
                                            int priority) {
    check_payload_size(payload_len);
    std::lock_guard invoke_lock(impl_->invoke_mu);
    impl_->purge_abandoned();
    Completion completion;
    auto& out = impl_->orb->out_port_t<OrbRequest>("toTransport");
    OrbRequest* msg = out.get_message();
    msg->request_id = impl_->next_request_id.fetch_add(1);
    msg->set_key(object_key);
    msg->set_op(operation);
    msg->set_payload(payload, payload_len);
    msg->completion = &completion;
    out.send(msg, priority);
    completion.wait();
    return take_reply(completion, object_key, operation);
}

std::vector<std::uint8_t> ClientOrb::invoke_within(
    const std::string& object_key, const std::string& operation,
    const std::uint8_t* payload, std::size_t payload_len,
    std::chrono::milliseconds deadline, int priority) {
    check_payload_size(payload_len);
    std::lock_guard invoke_lock(impl_->invoke_mu);
    impl_->purge_abandoned();
    auto completion = std::make_shared<Completion>();
    auto& out = impl_->orb->out_port_t<OrbRequest>("toTransport");
    OrbRequest* msg = out.get_message();
    msg->request_id = impl_->next_request_id.fetch_add(1);
    msg->set_key(object_key);
    msg->set_op(operation);
    msg->set_payload(payload, payload_len);
    msg->completion = completion.get();
    out.send(msg, priority);
    if (!completion->wait_for(deadline)) {
        // Keep the completion alive for the pipeline's eventual write; the
        // late reply (or transport error) lands harmlessly in it.
        impl_->abandoned.push_back(completion);
        throw OrbTimeout("invocation '" + operation + "' on '" + object_key +
                         "' missed its " + std::to_string(deadline.count()) +
                         " ms deadline");
    }
    return take_reply(*completion, object_key, operation);
}

bool ClientOrb::ping(const std::string& object_key, int priority) {
    std::lock_guard invoke_lock(impl_->invoke_mu);
    impl_->purge_abandoned();
    Completion completion;
    auto& out = impl_->orb->out_port_t<OrbRequest>("toTransport");
    OrbRequest* msg = out.get_message();
    msg->request_id = impl_->next_request_id.fetch_add(1);
    msg->set_key(object_key);
    msg->locate = true;
    msg->completion = &completion;
    out.send(msg, priority);
    completion.wait();
    if (completion.status !=
        static_cast<std::uint32_t>(cdr::ReplyStatus::kNoException)) {
        throw OrbError("ping of '" + object_key + "' failed");
    }
    return !completion.reply.empty() && completion.reply[0] == 1;
}

void ClientOrb::invoke_oneway(const std::string& object_key,
                              const std::string& operation,
                              const std::uint8_t* payload,
                              std::size_t payload_len, int priority) {
    check_payload_size(payload_len);
    std::lock_guard invoke_lock(impl_->invoke_mu);
    impl_->purge_abandoned();
    auto& out = impl_->orb->out_port_t<OrbRequest>("toTransport");
    OrbRequest* msg = out.get_message();
    msg->request_id = impl_->next_request_id.fetch_add(1);
    msg->set_key(object_key);
    msg->set_op(operation);
    msg->set_payload(payload, payload_len);
    msg->completion = nullptr; // oneway
    out.send(msg, priority);
}

// ---------------------------------------------------------------- server

namespace {

/// Level-0 (immortal) ORB component: owns the servant registry.
class ServerOrbComponent final : public core::Component {
public:
    explicit ServerOrbComponent(const core::ComponentContext& ctx)
        : core::Component(ctx) {}

    ServantRegistry& servants() noexcept { return servants_; }

private:
    ServantRegistry servants_;
};

/// Level-1 POA/Acceptor: adopts wires, reads frames, feeds the pipeline.
/// Reactor-capable wires are served by the shared epoll pool (O(1)
/// resident reader threads under fan-in); others get a reader thread.
class PoaAcceptorComponent final : public core::Component {
public:
    explicit PoaAcceptorComponent(const core::ComponentContext& ctx)
        : core::Component(ctx) {
        add_out_port<GiopFrame>("toTransport", "GiopFrame");
    }

    ~PoaAcceptorComponent() override { stop(); }

    void adopt_wire(std::unique_ptr<net::Transport> wire) {
        std::lock_guard lk(mu_);
        if (stopping_) throw OrbError("POA is shut down");
        net::Transport* raw = wire.get();
        wires_.push_back(std::move(wire));
        if (raw->reactor_hook() != nullptr) {
            reactor_wires_.push_back(net::Reactor::shared().register_wire(
                *raw, [this, raw](net::FrameBuffer frame) {
                    feed_pipeline(*raw, frame.data(), frame.size());
                }));
            return;
        }
        readers_.push_back(std::make_unique<rt::RtThread>(
            "poa-reader-" + std::to_string(readers_.size()), rt::Priority{},
            [this, raw] { reader_loop(*raw); }));
    }

    void stop() {
        std::vector<std::unique_ptr<rt::RtThread>> readers;
        std::vector<std::uint64_t> reactor_wires;
        {
            std::lock_guard lk(mu_);
            if (stopping_) return;
            stopping_ = true;
            reactor_wires.swap(reactor_wires_);
            readers.swap(readers_);
        }
        // Reactor wires first: deregistration flushes any parked replies
        // on the loop thread and guarantees no frame handler runs past
        // this point, so the close below cannot race a delivery.
        for (const std::uint64_t id : reactor_wires) {
            net::Reactor::shared().deregister_wire(id);
        }
        {
            std::lock_guard lk(mu_);
            for (auto& w : wires_) w->close();
        }
        for (auto& r : readers) r->join();
    }

private:
    /// One inbound frame into the pipeline. False when the pipeline is
    /// shutting down (message pool gone) and the caller should stop.
    bool feed_pipeline(net::Transport& wire, const std::uint8_t* data,
                       std::size_t size) {
        if (size > GiopFrame::kCapacity) {
            return true; // oversized frame: drop (would be MARSHAL error)
        }
        auto& out = out_port_t<GiopFrame>("toTransport");
        GiopFrame* msg = nullptr;
        try {
            msg = out.get_message();
        } catch (const std::exception&) {
            return false; // pipeline shut down under us
        }
        msg->assign(data, size);
        msg->reply_wire = &wire;
        out.send(msg, out.default_priority());
        return true;
    }

    void reader_loop(net::Transport& wire) {
        for (;;) {
            std::optional<net::FrameBuffer> frame;
            try {
                frame = wire.recv_frame();
            } catch (const std::exception&) {
                return; // connection torn down
            }
            if (!frame.has_value()) return;
            if (!feed_pipeline(wire, frame->data(), frame->size())) return;
        }
    }

    std::mutex mu_;
    bool stopping_ = false;
    std::vector<std::unique_ptr<net::Transport>> wires_;
    std::vector<std::uint64_t> reactor_wires_;
    std::vector<std::unique_ptr<rt::RtThread>> readers_;
};

/// Level-2 Transport: relays frames into the request-processing scope.
class ServerTransportComponent final : public core::Component {
public:
    explicit ServerTransportComponent(const core::ComponentContext& ctx)
        : core::Component(ctx) {
        add_in_port<GiopFrame>(
            "fromPoa", "GiopFrame", single_thread_port(),
            [this](GiopFrame& msg, core::Smm&) {
                auto& out = out_port_t<GiopFrame>("toRp");
                GiopFrame* fwd = out.get_message();
                fwd->copy_from(msg); // filled prefix only, not 4 KiB
                out.send(fwd, out.default_priority());
            });
        add_out_port<GiopFrame>("toRp", "GiopFrame");
    }
};

/// Level-3 RequestProcessing: demarshal, dispatch, reply.
class RequestProcessingComponent final : public core::Component {
public:
    RequestProcessingComponent(const core::ComponentContext& ctx,
                               ServantRegistry& servants)
        : core::Component(ctx), servants_(&servants) {
        add_in_port<GiopFrame>(
            "request", "GiopFrame", single_thread_port(),
            [this](GiopFrame& msg, core::Smm&) { process(msg); });
    }

private:
    void process(GiopFrame& msg) {
        // Branch on the GIOP message type: LocateRequest probes are
        // answered inline; Requests dispatch to a servant.
        try {
            const cdr::GiopHeader header =
                cdr::decode_header(msg.bytes.data(), msg.length);
            if (header.msg_type == cdr::GiopMsgType::kLocateRequest) {
                const cdr::LocateRequestHeader locate =
                    cdr::decode_locate_request(msg.bytes.data(), msg.length);
                cdr::LocateReplyHeader reply;
                reply.request_id = locate.request_id;
                reply.status = servants_->find(locate.object_key) != nullptr
                                   ? cdr::LocateStatus::kObjectHere
                                   : cdr::LocateStatus::kUnknownObject;
                msg.reply_wire->send_frame(cdr::encode_locate_reply(reply));
                return;
            }
        } catch (const cdr::MarshalError&) {
            return; // unparseable header: nothing sane to reply to
        }
        cdr::ReplyHeader reply_header;
        reply_payload_.clear(); // reused scratch: capacity survives messages
        try {
            // View decode: the request is demarshalled in place on the
            // frame bytes — no header-string or payload copies.
            const cdr::DecodedRequestView req =
                cdr::decode_request_view(msg.bytes.data(), msg.length);
            reply_header.request_id = req.header.request_id;
            const Servant* servant = servants_->find(req.header.object_key);
            if (servant == nullptr) {
                reply_header.status = cdr::ReplyStatus::kSystemException;
            } else {
                op_scratch_.assign(req.header.operation);
                const bool ok = (*servant)(op_scratch_, req.payload,
                                           req.payload_len, reply_payload_);
                reply_header.status = ok ? cdr::ReplyStatus::kNoException
                                         : cdr::ReplyStatus::kUserException;
            }
            if (!req.header.response_expected) return;
        } catch (const cdr::MarshalError&) {
            reply_header.status = cdr::ReplyStatus::kSystemException;
        }
        // Encode the reply into pooled storage and ship it without a copy.
        cdr::OutputStream out(net::FrameBufferPool::global().acquire_storage(
            cdr::GiopHeader::kSize + 16 + reply_payload_.size()));
        const std::size_t len_offset = cdr::begin_reply_payload(
            out, reply_header.request_id, reply_header.status);
        out.write_raw(reply_payload_.data(), reply_payload_.size());
        cdr::finish_payload(out, len_offset);
        msg.reply_wire->send_frame(
            net::FrameBufferPool::global().adopt(out.take_buffer()));
    }

    ServantRegistry* servants_;
    std::string op_scratch_;               ///< reused operation-name buffer
    std::vector<std::uint8_t> reply_payload_; ///< reused reply scratch
};

} // namespace

struct ServerOrb::Impl {
    ServerOrbComponent* orb = nullptr;
    PoaAcceptorComponent* poa = nullptr;
    ServerTransportComponent* transport = nullptr;
    RequestProcessingComponent* rp = nullptr;
};

ServerOrb::ServerOrb()
    : impl_(std::make_unique<Impl>()) {
    register_orb_message_types();
    core::RtsjAttributes attrs;
    attrs.immortal_size = 8 * 1024 * 1024;
    attrs.scoped_pools = {{1, 512 * 1024, 2}, {2, 512 * 1024, 2},
                          {3, 512 * 1024, 2}};
    app_ = std::make_unique<core::Application>("compadres-server-orb", attrs);

    impl_->orb = &app_->create_immortal<ServerOrbComponent>("Orb");
    impl_->poa = &app_->create_scoped<PoaAcceptorComponent>(
        "Poa", *impl_->orb, 1);
    impl_->transport = &app_->create_scoped<ServerTransportComponent>(
        "ServerTransport", *impl_->poa, 2);
    impl_->rp = &app_->create_scoped<RequestProcessingComponent>(
        "RequestProcessing", *impl_->transport, 3, impl_->orb->servants());

    app_->connect(*impl_->poa, "toTransport", *impl_->transport, "fromPoa");
    app_->connect(*impl_->transport, "toRp", *impl_->rp, "request");
    app_->start();
}

ServerOrb::~ServerOrb() { shutdown(); }

void ServerOrb::register_servant(const std::string& object_key,
                                 Servant servant) {
    impl_->orb->servants().register_servant(object_key, std::move(servant));
}

void ServerOrb::attach(std::unique_ptr<net::Transport> wire) {
    impl_->poa->adopt_wire(std::move(wire));
}

void ServerOrb::shutdown() {
    if (app_ == nullptr || impl_ == nullptr) return;
    impl_->poa->stop();
    app_->shutdown();
    // The application reclaimed the pipeline components; drop the stale
    // pointers so a second shutdown() (the destructor's) is a no-op.
    impl_.reset();
}

} // namespace compadres::orb
