/**
 * @file
 * Deterministic in-process transport: the exact TransportCore
 * admission/shed/batch machinery of the socket transport, but over
 * in-memory byte pipes instead of TCP. It is the one in-process
 * transport: every correctness suite, example and simulation bench
 * drives the server through it, so each message crosses the same
 * wire framing, admission and batch lift that production runs.
 *
 * The determinism contract: given the same sequence of client writes
 * (bytes and order), the same pump() cadence, the same
 * TransportConfig, fault plan and clock, every observable -- replies,
 * reject bytes, counter values, connection fates -- is bit-identical
 * across runs and across ServerFrontEnd pool widths. Everything the
 * transport does is single-threaded and iterates connections in
 * ascending id order; the only parallel stage is handleBatch, which
 * is bit-identical at any thread count by its own contract.
 *
 * Backpressure is modeled faithfully: pump() moves bytes from a
 * client's outbox into the core only while the core wants to read
 * that connection (queue below bound); the rest stay in the outbox,
 * exactly like bytes stalled in a TCP send buffer.
 *
 * Fault injection and the wiretap act on whole frames at the client
 * end of each connection, in both directions: a frame the client
 * sends (sendMessage) and a frame the server writes are each given
 * the next global send ordinal, shown to the attached Transcript,
 * then subjected to the FaultPlan entry for that ordinal. Delays run
 * on the bound util::SimClock, so any fault schedule is replayable
 * bit-for-bit (no wall clock anywhere). Corrupt damages the encoded
 * protocol message and re-frames it with a valid outer CRC, so the
 * message's own CRC -- not the wire codec -- catches it.
 */

#ifndef AUTH_NET_LOOPBACK_HPP
#define AUTH_NET_LOOPBACK_HPP

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "net/transport.hpp"
#include "net/wire.hpp"
#include "protocol/transcript.hpp"
#include "util/sim_clock.hpp"

namespace authenticache::server {
class AuthenticationServer;
class DeviceAgent;
} // namespace authenticache::server

namespace authenticache::net {

/** Fault applied to one scheduled frame. */
enum class FaultType : std::uint8_t
{
    None,
    Drop,      ///< Frame silently discarded.
    Duplicate, ///< Frame delivered twice back-to-back.
    Reorder,   ///< Frame jumps ahead of anything already queued.
    Delay,     ///< Frame held for delaySteps clock steps.
    Corrupt,   ///< One seeded-random message byte XORed with a mask.
};

/** One scheduled fault, addressed by global send ordinal. */
struct FaultSpec
{
    FaultType type = FaultType::None;
    std::uint64_t frameIndex = 0; ///< 0-based send ordinal (either way).
    std::uint64_t delaySteps = 0; ///< Delay only.
};

/**
 * A replayable fault schedule: a set of FaultSpecs plus the seed that
 * drives corruption byte/mask choices. The same plan against the same
 * exchange produces bit-identical transport behavior.
 */
class FaultPlan
{
  public:
    FaultPlan() = default;
    explicit FaultPlan(std::uint64_t corruption_seed)
        : rngSeed(corruption_seed)
    {
    }

    FaultPlan &
    add(const FaultSpec &spec)
    {
        specs.push_back(spec);
        return *this;
    }

    /** The fault scheduled for a send ordinal, if any. */
    const FaultSpec *at(std::uint64_t frame_index) const;

    std::uint64_t seed() const { return rngSeed; }

  private:
    std::uint64_t rngSeed = 0xFA017;
    std::vector<FaultSpec> specs;
};

/** Tally of faults the transport actually applied. */
struct FaultCounters
{
    std::uint64_t drops = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t reorders = 0;
    std::uint64_t delays = 0;
    std::uint64_t corruptions = 0;
};

class LoopbackTransport : public Transport
{
  public:
    /** Test-side handle to one loopback connection. */
    class Client
    {
      public:
        std::uint64_t id() const { return conn->id; }

        /** The transport this connection belongs to. */
        LoopbackTransport &transport() { return *owner; }

        /** Queue raw bytes toward the server (a TCP send). Raw bytes
         *  bypass the fault plan and the wiretap. */
        void write(std::span<const std::uint8_t> data);

        /** Frame and queue one message on @p stream. */
        void sendMessage(std::uint64_t stream,
                         const protocol::Message &m);

        /**
         * The client->server sink of @p stream (a DeviceAgent's
         * uplink). Owned by this client; stable for its lifetime.
         */
        protocol::ReplySink &uplink(std::uint64_t stream);

        /**
         * A server->client sink on @p stream for server-initiated
         * pushes (startRemap, startHeartbeat, tickHeartbeats). Owned
         * by this client, so it stays valid across pumps even after
         * the core retires the stream's own sink; each push reaches
         * the client at once, like a batch reply.
         */
        protocol::ReplySink &downlink(std::uint64_t stream);

        /** Half-close: no more client bytes; server drains then
         *  closes (an orderly FIN). */
        void closeWrite() { writeClosed = true; }

        /** Abortive close: unsent bytes vanish, the server sees EOF
         *  immediately (a mid-stream RST). */
        void abort();

        /** Server->client frames, in arrival order. */
        std::vector<WireFrame> readFrames();

        /** Decoded server->client messages, in arrival order. */
        std::vector<std::pair<std::uint64_t, protocol::Message>>
        readMessages();

        /** Raw server bytes (wire-level assertions). */
        std::vector<std::uint8_t> takeRawBytes();

        /** Client bytes not yet accepted by the server
         *  (backpressure observability). */
        std::size_t unsentBytes() const;

        /** Server closed its side of this connection. */
        bool serverClosed() const { return conn->closed; }

      private:
        friend class LoopbackTransport;
        class Uplink;
        class Downlink;

        /** Move queued frames into the byte outbox, in order. */
        void flushFrames();

        LoopbackTransport *owner = nullptr;
        TransportCore::Conn *conn = nullptr;
        std::deque<WireFrame> toServer; ///< framed, not yet written
        std::vector<std::uint8_t> outbox; ///< client -> server bytes
        std::size_t outHead = 0;
        std::deque<WireFrame> inbox; ///< server -> client frames
        WireDecoder down; ///< splits server bytes into frames
        std::map<std::uint64_t, std::unique_ptr<Uplink>> uplinks;
        std::map<std::uint64_t, std::unique_ptr<Downlink>> downlinks;
        bool writeClosed = false;
        bool aborted = false;
    };

    LoopbackTransport(server::ServerFrontEnd &front,
                      const TransportConfig &config);
    ~LoopbackTransport() override;

    /** Open a connection. Refused (returns nullptr) after drain(). */
    Client *connect();

    /**
     * One deterministic service cycle, connections in ascending id
     * order: move client bytes into the core (respecting
     * backpressure), deliver EOFs, run one batch, hand reply frames
     * to the clients. @return frames serviced.
     */
    std::size_t pump(util::ThreadPool &pool) override;

    /** Pump until no admitted or deliverable work remains. */
    void pumpUntilIdle(util::ThreadPool &pool);

    void drain(util::ThreadPool &pool) override;

    const TransportCounters &counters() const override
    {
        return core.counters();
    }

    /** No queued requests and no undelivered bytes (delay-held
     *  frames are not counted; see heldFrames()). */
    bool idle() const override;

    TransportCore &transportCore() { return core; }

    /** Attach a wiretap (not owned). */
    void attachTranscript(protocol::Transcript *tap) { transcript = tap; }

    /**
     * Bind the simulated clock driving Delay faults (not owned).
     * Without a clock, delayed frames are delivered immediately.
     */
    void bindClock(const util::SimClock *clk) { simClock = clk; }

    /** Install a deterministic fault schedule. */
    void setFaultPlan(FaultPlan schedule) { plan = std::move(schedule); }

    /** Frames sent so far, both ways (the next send ordinal). */
    std::uint64_t framesSent() const { return nFrames; }

    /** Faults applied so far from the plan. */
    const FaultCounters &faultCounters() const { return faults; }

    /** Frames held back by Delay faults, either way. */
    std::size_t heldFrames() const { return delayed.size(); }

  private:
    struct DelayedFrame
    {
        std::uint64_t releaseStep;
        std::uint64_t sequence; // Tiebreak: preserve send order.
        Client *client;
        protocol::Direction direction;
        WireFrame frame;
    };

    /** Move outbox bytes into the core while it wants them. */
    void feed(Client &client);

    /** Split the server's pending bytes into frames for @p client. */
    void deliver(Client &client);

    /** Number, tap and fault one frame, then queue it. */
    void transmit(Client &client, protocol::Direction d,
                  WireFrame frame);

    void enqueue(Client &client, protocol::Direction d,
                 WireFrame frame, bool front = false);

    /** Queue delay-held frames whose release step has passed. */
    void releaseDue();

    std::uint64_t now() const { return simClock ? simClock->now() : 0; }

    TransportCore core;
    std::map<std::uint64_t, std::unique_ptr<Client>> clients;
    bool accepting = true;
    protocol::Transcript *transcript = nullptr;
    const util::SimClock *simClock = nullptr;
    FaultPlan plan;
    FaultCounters faults;
    std::vector<DelayedFrame> delayed;
    std::uint64_t nFrames = 0;
    std::uint64_t nDelaySeq = 0;
};

/**
 * Run a device exchange to quiescence: pump @p client's transport and
 * hand every frame that reaches the client to @p agent, until neither
 * side has anything left to do.
 */
void runExchange(LoopbackTransport::Client &client,
                 server::DeviceAgent &agent,
                 util::ThreadPool &pool = util::ThreadPool::global());

/** Result of a clock-driven exchange (see runExchangeSteps). */
struct SteppedExchangeResult
{
    /**
     * The exchange reached quiescence (agent idle, transport empty)
     * within the step budget; false means a hang, which the
     * reliability layer exists to rule out.
     */
    bool quiesced = false;
    std::uint64_t steps = 0;
};

/**
 * Clock-driven exchange: each step runs the exchange to quiescence
 * (runExchange), then advances @p clock by one and lets the server
 * expire sessions and the agent retransmit. Returns once the agent has
 * no session in flight and no frame is queued or delay-held, or after
 * @p max_steps (a hang).
 */
SteppedExchangeResult
runExchangeSteps(server::AuthenticationServer &server,
                 LoopbackTransport::Client &client,
                 server::DeviceAgent &agent, util::SimClock &clock,
                 std::uint64_t max_steps = 1000,
                 util::ThreadPool &pool = util::ThreadPool::global());

} // namespace authenticache::net

#endif // AUTH_NET_LOOPBACK_HPP
