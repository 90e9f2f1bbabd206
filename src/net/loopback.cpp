#include "net/loopback.hpp"

#include <algorithm>

#include "server/server.hpp"
#include "util/rng.hpp"

namespace authenticache::net {

const FaultSpec *
FaultPlan::at(std::uint64_t frame_index) const
{
    for (const auto &spec : specs) {
        if (spec.frameIndex == frame_index &&
            spec.type != FaultType::None)
            return &spec;
    }
    return nullptr;
}

/** A client stream's outbound half: sendMessage on a fixed stream. */
class LoopbackTransport::Client::Uplink : public protocol::ReplySink
{
  public:
    Uplink(Client &client_, std::uint64_t stream_)
        : client(client_), stream(stream_)
    {
    }

    void send(const protocol::Message &m) override
    {
        client.sendMessage(stream, m);
    }

  private:
    Client &client;
    std::uint64_t stream;
};

/**
 * A server push on a fixed stream: written through the core's stream
 * sink machinery (framing, counters, slow-reader cap), then handed to
 * the client at once. The core never sees this sink in its stream
 * table, so retiring the stream there cannot invalidate it.
 */
class LoopbackTransport::Client::Downlink : public protocol::ReplySink
{
  public:
    Downlink(LoopbackTransport &owner_, Client &client_,
             std::uint64_t stream)
        : owner(owner_), client(client_),
          sink(owner_.core, *client_.conn, stream)
    {
    }

    void send(const protocol::Message &m) override
    {
        sink.send(m);
        owner.deliver(client);
    }

  private:
    LoopbackTransport &owner;
    Client &client;
    TransportCore::StreamSink sink;
};

void
LoopbackTransport::Client::write(std::span<const std::uint8_t> data)
{
    if (writeClosed || aborted)
        return;
    flushFrames();
    outbox.insert(outbox.end(), data.begin(), data.end());
}

void
LoopbackTransport::Client::sendMessage(std::uint64_t stream,
                                       const protocol::Message &m)
{
    if (writeClosed || aborted)
        return;
    owner->transmit(*this, protocol::Direction::ClientToServer,
                    WireFrame{stream, protocol::encodeMessage(m)});
}

protocol::ReplySink &
LoopbackTransport::Client::uplink(std::uint64_t stream)
{
    auto &slot = uplinks[stream];
    if (!slot)
        slot = std::make_unique<Uplink>(*this, stream);
    return *slot;
}

protocol::ReplySink &
LoopbackTransport::Client::downlink(std::uint64_t stream)
{
    auto &slot = downlinks[stream];
    if (!slot)
        slot = std::make_unique<Downlink>(*owner, *this, stream);
    return *slot;
}

void
LoopbackTransport::Client::flushFrames()
{
    for (const auto &frame : toServer) {
        std::vector<std::uint8_t> bytes =
            encodeWireFrame(frame.stream, frame.payload);
        outbox.insert(outbox.end(), bytes.begin(), bytes.end());
    }
    toServer.clear();
}

void
LoopbackTransport::Client::abort()
{
    aborted = true;
    writeClosed = true;
    toServer.clear();
    outbox.clear();
    outHead = 0;
}

std::vector<WireFrame>
LoopbackTransport::Client::readFrames()
{
    owner->releaseDue();
    std::vector<WireFrame> out(std::make_move_iterator(inbox.begin()),
                               std::make_move_iterator(inbox.end()));
    inbox.clear();
    return out;
}

std::vector<std::pair<std::uint64_t, protocol::Message>>
LoopbackTransport::Client::readMessages()
{
    std::vector<std::pair<std::uint64_t, protocol::Message>> out;
    for (auto &frame : readFrames())
        out.emplace_back(frame.stream,
                         protocol::decodeMessage(frame.payload));
    return out;
}

std::vector<std::uint8_t>
LoopbackTransport::Client::takeRawBytes()
{
    std::vector<std::uint8_t> out;
    for (const auto &frame : readFrames()) {
        std::vector<std::uint8_t> bytes =
            encodeWireFrame(frame.stream, frame.payload);
        out.insert(out.end(), bytes.begin(), bytes.end());
    }
    return out;
}

std::size_t
LoopbackTransport::Client::unsentBytes() const
{
    std::size_t n = outbox.size() - outHead;
    for (const auto &frame : toServer)
        n += kWireHeaderBytes + frame.payload.size() +
             kWireTrailerBytes;
    return n;
}

LoopbackTransport::LoopbackTransport(server::ServerFrontEnd &front,
                                     const TransportConfig &config)
    : core(front, config)
{
}

LoopbackTransport::~LoopbackTransport() = default;

LoopbackTransport::Client *
LoopbackTransport::connect()
{
    if (!accepting)
        return nullptr;
    auto client = std::make_unique<Client>();
    client->owner = this;
    client->conn = &core.open();
    Client &ref = *client;
    clients.emplace(ref.conn->id, std::move(client));
    return &ref;
}

void
LoopbackTransport::enqueue(Client &client, protocol::Direction d,
                           WireFrame frame, bool front)
{
    auto &queue = d == protocol::Direction::ClientToServer
                      ? client.toServer
                      : client.inbox;
    if (front)
        queue.push_front(std::move(frame));
    else
        queue.push_back(std::move(frame));
}

void
LoopbackTransport::transmit(Client &client, protocol::Direction d,
                            WireFrame frame)
{
    const std::uint64_t ordinal = nFrames++;
    if (transcript)
        transcript->record(d, frame.payload);

    const FaultSpec *spec = plan.at(ordinal);
    switch (spec ? spec->type : FaultType::None) {
      case FaultType::Drop:
        ++faults.drops;
        return;
      case FaultType::Duplicate:
        ++faults.duplicates;
        // Both copies cross the wire; the eavesdropper sees both.
        if (transcript)
            transcript->record(d, frame.payload);
        enqueue(client, d, frame);
        break;
      case FaultType::Reorder:
        ++faults.reorders;
        enqueue(client, d, std::move(frame), /*front=*/true);
        return;
      case FaultType::Delay:
        if (!simClock || spec->delaySteps == 0)
            break;
        ++faults.delays;
        delayed.push_back({now() + spec->delaySteps, nDelaySeq++,
                           &client, d, std::move(frame)});
        return;
      case FaultType::Corrupt: {
        ++faults.corruptions;
        // Seed by (plan seed, ordinal): the damaged byte and mask
        // depend only on the schedule, never on call order elsewhere.
        // The outer frame is built afterwards, so its CRC is valid and
        // the message's own CRC rejects it.
        util::Rng rng = util::Rng::forStream(plan.seed(), ordinal);
        std::size_t pos = rng.nextBelow(frame.payload.size());
        frame.payload[pos] ^=
            static_cast<std::uint8_t>(1 + rng.nextBelow(255));
        break;
      }
      case FaultType::None:
        break;
    }
    enqueue(client, d, std::move(frame));
}

void
LoopbackTransport::releaseDue()
{
    if (delayed.empty())
        return;
    const std::uint64_t step = now();
    // Release in (releaseStep, sequence) order so delivery is
    // deterministic regardless of how far the clock jumped.
    std::stable_sort(delayed.begin(), delayed.end(),
                     [](const DelayedFrame &x, const DelayedFrame &y) {
                         if (x.releaseStep != y.releaseStep)
                             return x.releaseStep < y.releaseStep;
                         return x.sequence < y.sequence;
                     });
    std::size_t released = 0;
    for (auto &held : delayed) {
        if (held.releaseStep > step)
            break;
        enqueue(*held.client, held.direction, std::move(held.frame));
        ++released;
    }
    delayed.erase(delayed.begin(),
                  delayed.begin() +
                      static_cast<std::ptrdiff_t>(released));
}

void
LoopbackTransport::feed(Client &client)
{
    TransportCore::Conn &conn = *client.conn;
    client.flushFrames();
    const std::size_t chunk = core.config().readChunkBytes;
    while (client.outHead < client.outbox.size()) {
        if (!core.wantsRead(conn)) {
            // Bytes stall in the outbox -- the loopback analogue of a
            // full TCP receive window. (Stalls with bytes buffered in
            // the decoder were already counted by ingest.)
            if (!conn.closed && conn.decoder.buffered() == 0)
                core.noteBackpressureStall();
            return;
        }
        const std::size_t n = std::min(
            chunk, client.outbox.size() - client.outHead);
        core.ingest(conn, std::span<const std::uint8_t>(
                              client.outbox.data() + client.outHead,
                              n));
        client.outHead += n;
    }
    client.outbox.clear();
    client.outHead = 0;
    // Orderly shutdown: EOF is delivered only after every byte before
    // it has been consumed.
    if (client.writeClosed && !conn.closed && conn.queue.empty() &&
        conn.decoder.buffered() == 0 && conn.pendingOut() == 0)
        core.close(conn);
}

void
LoopbackTransport::deliver(Client &client)
{
    TransportCore::Conn &conn = *client.conn;
    if (conn.pendingOut() == 0 || client.aborted)
        return;
    client.down.feed(std::span<const std::uint8_t>(
        conn.out.data() + conn.outHead, conn.pendingOut()));
    conn.out.clear();
    conn.outHead = 0;
    while (auto frame = client.down.next())
        transmit(client, protocol::Direction::ServerToClient,
                 std::move(*frame));
}

std::size_t
LoopbackTransport::pump(util::ThreadPool &pool)
{
    releaseDue();
    for (auto &[id, client] : clients) {
        if (client->aborted && !client->conn->closed)
            core.close(*client->conn); // RST: drop everything now.
        else
            feed(*client);
    }

    const std::size_t serviced = core.runBatch(pool);

    // Deliver replies; then re-check half-closed connections, whose
    // EOF may have become deliverable once the batch drained their
    // queue and replies flushed.
    for (auto &[id, client] : clients) {
        deliver(*client);
        if (!client->conn->closed)
            feed(*client);
    }
    return serviced;
}

void
LoopbackTransport::pumpUntilIdle(util::ThreadPool &pool)
{
    // Each idle pump still moves stalled bytes, so loop until nothing
    // is queued anywhere, then once more to flush EOFs.
    while (!idle())
        pump(pool);
    pump(pool);
}

void
LoopbackTransport::drain(util::ThreadPool &pool)
{
    accepting = false;
    pumpUntilIdle(pool);
    // Closed, not reaped: each Client handle keeps pointing at its
    // Conn until the transport itself is destroyed.
    for (auto &[id, client] : clients)
        if (!client->conn->closed)
            core.close(*client->conn);
}

bool
LoopbackTransport::idle() const
{
    if (!core.idle())
        return false;
    for (const auto &[id, client] : clients) {
        const TransportCore::Conn &conn = *client->conn;
        if (conn.closed)
            continue;
        if (client->unsentBytes() > 0 && core.wantsRead(conn))
            return false;
        if (conn.pendingOut() > 0)
            return false;
    }
    return true;
}

void
runExchange(LoopbackTransport::Client &client,
            server::DeviceAgent &agent, util::ThreadPool &pool)
{
    bool progress = true;
    while (progress) {
        progress = client.transport().pump(pool) > 0;
        for (const auto &frame : client.readFrames()) {
            agent.receive(frame.payload);
            progress = true;
        }
    }
}

SteppedExchangeResult
runExchangeSteps(server::AuthenticationServer &server,
                 LoopbackTransport::Client &client,
                 server::DeviceAgent &agent, util::SimClock &clock,
                 std::uint64_t max_steps, util::ThreadPool &pool)
{
    const LoopbackTransport &loop = client.transport();
    SteppedExchangeResult result;
    for (; result.steps < max_steps; ++result.steps) {
        runExchange(client, agent, pool);
        if (!agent.sessionActive() && loop.heldFrames() == 0) {
            result.quiesced = true;
            return result;
        }
        clock.advance(1);
        server.tick();
        agent.tick();
    }
    return result;
}

} // namespace authenticache::net
