/**
 * @file
 * wire_auth_small: full authentication round trips (AuthRequest ->
 * ChallengeMsg -> honest ResponseMsg -> AuthDecision) over TCP
 * loopback into net::EpollTransport. Per-request compute is tiny, so
 * wire framing, admission, batch lift, decode and reply encode do
 * most of the work.
 *
 * The calling thread pumps the transport; one generator thread owns
 * every client connection. Two phases run back to back:
 *
 *  - open loop: Poisson arrivals at a fixed offered rate, each
 *    latency taken from the scheduled send time to the AuthDecision.
 *    Its sub-millisecond tail follows the host's scheduling stalls
 *    (on a 4-core VM its p99 spread 0.5-2x across runs), so it is
 *    reported in the report line and checks the generator's
 *    schedule, but is not the gated latency;
 *  - closed loop: a fixed in-flight window below the admission
 *    budget, so nothing is shed. Its goodput is the saturation rate,
 *    and its per-auth latencies (send to AuthDecision) are the
 *    workload's lat_p50_ms / lat_p99_ms.
 */

#include <atomic>
#include <exception>
#include <sys/prctl.h>
#include <thread>
#include <unordered_map>
#include <variant>

#include "common.hpp"
#include "net/epoll_transport.hpp"
#include "net/socket_client.hpp"

namespace perfbench {

namespace ac = authenticache;
namespace pr = ac::protocol;

namespace {

struct PhaseStats
{
    OpTally tally;
    std::vector<double> latenciesMs; ///< Accepted and rejected decisions.
    std::vector<double> lateMs;      ///< Send time minus scheduled time.
    Clock::time_point start;
    std::vector<Clock::time_point> decidedAt; ///< Per decision.
    double wallS = 0.0;
    /** Generator time spent queueing, answering and writing; idle
     *  polls and sleeps excluded. */
    double busyS = 0.0;
};

/** Goodput of consecutive @p chunk-decision stretches of a phase. */
std::vector<double>
decisionChunkGoodput(const PhaseStats &st, std::size_t chunk)
{
    std::vector<double> out;
    for (std::size_t hi = chunk; hi <= st.decidedAt.size(); hi += chunk) {
        const Clock::time_point from =
            hi == chunk ? st.start : st.decidedAt[hi - chunk - 1];
        out.push_back(static_cast<double>(chunk) /
                      secondsBetween(from, st.decidedAt[hi - 1]));
    }
    return out;
}

/** The client side: every connection, driven from one thread. */
class WireGenerator
{
  public:
    WireGenerator(const Fleet &fleet_, std::uint16_t port, std::size_t n,
                  Checker &checker, std::int64_t threshold_,
                  std::size_t bits_, Tracer *tracer_, ReplaySample *sample_)
        : fleet(fleet_), check(checker), threshold(threshold_),
          bits(bits_), tracer(tracer_), sample(sample_), conns(n)
    {
        // Microsecond sleeps need a timer slack below the 50 us default.
        prctl(PR_SET_TIMERSLACK, 1000UL);
        for (auto &c : conns)
            if (!c.connectTo(port))
                throw std::runtime_error("cannot connect to the transport");
    }

    /**
     * Authenticate every device in @p devices once. With a schedule
     * (seconds after the phase start, one per device) the loop is
     * open; otherwise at most @p window auths are in flight. Frames
     * queued for a connection go out together in one writeRaw.
     */
    PhaseStats
    run(std::span<const std::uint64_t> devices,
        const std::vector<double> *schedule, std::size_t window)
    {
        PhaseStats st;
        const std::size_t total = devices.size();
        std::size_t next = 0;
        std::size_t done = 0;
        const auto t0 = Clock::now();
        st.start = t0;
        auto lastProgress = t0;

        // Queue what is due (open loop) or fits the window (closed).
        auto queueDue = [&] {
            bool any = false;
            const auto now = Clock::now();
            while (next < total) {
                Clock::time_point due = now;
                if (schedule) {
                    due = t0 + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(
                                       (*schedule)[next]));
                    if (due > now)
                        break;
                    dueSends.push_back(due);
                } else if (inflight.size() >= window) {
                    break;
                }
                const std::uint64_t device = devices[next];
                const std::size_t conn = next % conns.size();
                ++next;
                ++st.tally.attempted;
                inflight[device] = {due, conn};
                queue(conn, device, pr::AuthRequest{device});
                any = true;
            }
            if (any)
                st.busyS += secondsSince(now);
            return any;
        };

        while (done < total) {
            bool worked = queueDue();
            // A few replies per connection, then write, so due sends
            // never wait behind a long burst of answers.
            for (std::size_t c = 0; c < conns.size(); ++c) {
                for (int k = 0; k < kReadsPerPass; ++k) {
                    const auto r0 = Clock::now();
                    auto m = conns[c].readMessage(0);
                    if (!m)
                        break;
                    const auto r1 = Clock::now();
                    if (tracer)
                        tracer->record("SocketClient::readMessage", 0,
                                       m->first, r0, r1);
                    worked = true;
                    done += handle(m->first, m->second, r1, st);
                    st.busyS += secondsSince(r0);
                }
                if (conns[c].eof() || conns[c].failed()) {
                    check.fail("server closed a client connection");
                    st.tally.failed += total - done;
                    st.wallS = secondsSince(t0);
                    return st;
                }
                worked = queueDue() || worked;
                if (!flush(st)) {
                    check.fail("client write failed");
                    st.tally.failed += total - done;
                    st.wallS = secondsSince(t0);
                    return st;
                }
            }
            if (worked) {
                lastProgress = Clock::now();
                continue;
            }
            if (secondsSince(lastProgress) > 10.0) {
                check.fail("no reply for 10 s with " +
                           std::to_string(inflight.size()) + " in flight");
                st.tally.failed += total - done;
                break;
            }
            idleWait(schedule, next, t0);
        }
        st.wallS = secondsSince(t0);
        return st;
    }

    double respondSeconds = 0.0;
    std::uint64_t responses = 0;

  private:
    static constexpr int kReadsPerPass = 8;
    static constexpr std::chrono::microseconds kIdleStep{20};

    /**
     * Nothing was readable: sleep a few microseconds (or until the
     * next scheduled send, if sooner) instead of spinning, so the
     * generator leaves the cores to the server.
     */
    void
    idleWait(const std::vector<double> *schedule, std::size_t next,
             Clock::time_point t0)
    {
        auto wake = Clock::now() + kIdleStep;
        if (schedule && next < schedule->size())
            wake = std::min(wake,
                            t0 + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(
                                         (*schedule)[next])));
        std::this_thread::sleep_until(wake);
    }

    struct InFlight
    {
        Clock::time_point due;
        std::size_t conn = 0;
    };

    /** Append one wire frame to a connection's outbound bytes. */
    void
    queue(std::size_t conn, std::uint64_t stream, const pr::Message &m)
    {
        if (sample && sample->take())
            sample->frames.push_back(pr::encodeMessage(m));
        const std::vector<std::uint8_t> frame =
            ac::net::encodeWireMessage(stream, m);
        pending[conn].insert(pending[conn].end(), frame.begin(),
                             frame.end());
    }

    /** Write every connection's queued frames; stamp due sends. */
    bool
    flush(PhaseStats &st)
    {
        for (std::size_t c = 0; c < conns.size(); ++c) {
            if (pending[c].empty())
                continue;
            const auto w0 = Clock::now();
            const bool ok = conns[c].writeRaw(pending[c]);
            const auto w1 = Clock::now();
            st.busyS += secondsBetween(w0, w1);
            if (tracer)
                tracer->record("SocketClient::writeRaw", 0,
                               pending[c].size(), w0, w1);
            pending[c].clear();
            if (!ok)
                return false;
        }
        const auto sent = Clock::now();
        for (const Clock::time_point due : dueSends)
            st.lateMs.push_back(
                std::chrono::duration<double, std::milli>(sent - due)
                    .count());
        dueSends.clear();
        return true;
    }

    /** One reply. @return 1 when it finished its operation. */
    std::size_t
    handle(std::uint64_t stream, const pr::Message &m,
           Clock::time_point now, PhaseStats &st)
    {
        auto it = inflight.find(stream);
        if (it == inflight.end()) {
            check.fail("reply on stream " + std::to_string(stream) +
                       " with no auth in flight");
            return 0;
        }
        if (sample && sample->take())
            sample->frames.push_back(pr::encodeMessage(m));
        if (const auto *ch = std::get_if<pr::ChallengeMsg>(&m)) {
            if (ch->challenge.size() != bits)
                check.fail("challenge of " +
                           std::to_string(ch->challenge.size()) + " bits");
            const auto r0 = Clock::now();
            ac::core::Response r = fleet.respond(stream, ch->challenge);
            respondSeconds += secondsSince(r0);
            ++responses;
            if (sample && sample->take()) {
                sample->challenges.emplace_back(stream, ch->challenge);
                sample->verifies.emplace_back(r, r);
            }
            queue(it->second.conn, stream,
                  pr::ResponseMsg{ch->nonce, std::move(r)});
            return 0;
        } else if (const auto *d = std::get_if<pr::AuthDecision>(&m)) {
            if (d->accepted)
                ++st.tally.accepted;
            if (!check.checkDecision(*d, 0, threshold))
                ++st.tally.failed;
            st.decidedAt.push_back(now);
            st.latenciesMs.push_back(
                std::chrono::duration<double, std::milli>(now -
                                                          it->second.due)
                    .count());
            inflight.erase(it);
            return 1;
        } else {
            const auto *err = std::get_if<pr::ErrorMsg>(&m);
            check.fail(err ? "unexpected ErrorMsg: " + err->reason
                           : "unexpected message type " +
                                 std::to_string(m.index()));
        }
        ++st.tally.failed;
        inflight.erase(it);
        return 1;
    }

    const Fleet &fleet;
    Checker &check;
    std::int64_t threshold;
    std::size_t bits;
    Tracer *tracer;
    ReplaySample *sample;
    std::vector<ac::net::SocketClient> conns;
    std::vector<std::vector<std::uint8_t>> pending{conns.size()};
    std::vector<Clock::time_point> dueSends; ///< Queued open-loop sends.
    std::unordered_map<std::uint64_t, InFlight> inflight;
};

class WireWorkload : public Workload
{
  public:
    static constexpr FleetSpec kSpec{100000, 64u << 10, 40};
    static constexpr std::size_t kBits = 32;
    /**
     * Open-loop offered rate: about 0.3 of the ~32k/s saturation
     * goodput measured on a 4-core x86 VM when it was chosen, so the
     * phase still sheds nothing when a noisy host halves the server's
     * speed for a while (observed on that VM).
     */
    static constexpr double kOpenRatePerS = 10000.0;
    static constexpr std::size_t kOpenOps = 20000;
    static constexpr std::size_t kClosedOps = 40000;
    static constexpr std::size_t kWindow = 512;
    static constexpr std::size_t kBudget = 2048;
    static constexpr std::size_t kConnQueue = 256;
    static constexpr std::size_t kProbeOps = 8 * kWave;
    /**
     * The generator fell behind when its median send is later than
     * this, or it is busy nearly all the time. Host stalls delay a
     * few percent of sends by milliseconds; they move the tail, not
     * the median, and are measured as latency, not as an invalid run.
     */
    static constexpr double kMaxLateP50Ms = 0.25;
    static constexpr double kMaxBusyFrac = 0.9;

    explicit WireWorkload(const Env &e)
        : env(e), fleet(kSpec, e.seed),
          order(devicePermutation(kSpec.devices, e.seed)),
          connections(e.poolWidth + 1) // One per hardware thread.
    {
        ac::util::Rng rng = ac::util::Rng::forStream(e.seed, 0x0AE7);
        double t = 0.0;
        schedule.reserve(kOpenOps);
        for (std::size_t i = 0; i < kOpenOps; ++i) {
            t += rng.nextExponential(kOpenRatePerS);
            schedule.push_back(t);
        }
    }

    RepResult
    rep(Checker &check, bool traced) override
    {
        RepResult out;
        ScratchDir dir(env.scratch->path());
        ac::util::ThreadPool pool(env.poolWidth);
        trimHeap();
        const std::uint64_t base = residentBytes();

        const auto t0 = Clock::now();
        ac::server::ServerConfig cfg;
        cfg.challengeBits = kBits;
        cfg.maxPendingSessions = 4 * kBudget;
        auto server =
            std::make_unique<ac::server::AuthenticationServer>(cfg,
                                                               env.seed);
        enrollFleet(*server, fleet);
        WaveRunner warm(*server, fleet, check, env.seed);
        warmUp(warm, fleet, pool);
        ac::net::TransportConfig tcfg;
        tcfg.globalInFlight = kBudget;
        tcfg.perConnectionQueue = kConnQueue;
        ac::net::EpollTransport transport(server->frontEnd(), tcfg);
        out.setupS = secondsSince(t0);

        const std::int64_t threshold =
            ac::server::Verifier(cfg.verifier).thresholdFor(kBits);
        Tracer genTracer(1);
        Tracer pumpTracer(std::uint64_t{1} << 48);
        ReplaySample sample(env.seed);
        const std::span<const std::uint64_t> openDevices(order.data(),
                                                         kOpenOps);
        const std::span<const std::uint64_t> closedDevices(
            order.data() + kOpenOps, kClosedOps);

        PhaseStats open;
        PhaseStats closed;
        double respondS = 0.0;
        std::uint64_t responses = 0;
        std::atomic<bool> finished{false};
        std::exception_ptr error;
        std::thread generator([&] {
            try {
                WireGenerator gen(fleet, transport.port(), connections,
                                  check, threshold, kBits,
                                  traced ? &genTracer : nullptr,
                                  traced ? &sample : nullptr);
                open = gen.run(openDevices, &schedule, 0);
                closed = gen.run(closedDevices, nullptr, kWindow);
                respondS = gen.respondSeconds;
                responses = gen.responses;
            } catch (...) {
                error = std::current_exception();
            }
            finished.store(true, std::memory_order_release);
        });
        std::exception_ptr pumpError;
        try {
            while (!finished.load(std::memory_order_acquire)) {
                const auto p0 = Clock::now();
                const std::size_t n = transport.pump(pool, 1);
                if (traced && n > 0)
                    pumpTracer.record("EpollTransport::pump", 0, n, p0,
                                      Clock::now());
            }
        } catch (...) {
            // The generator stops on its own once replies stop.
            pumpError = std::current_exception();
        }
        generator.join();
        if (pumpError)
            std::rethrow_exception(pumpError);
        if (error)
            std::rethrow_exception(error);
        out.serverMemMb = memGrowthMb(base);
        const ac::net::TransportCounters counters = transport.counters();
        transport.drain(pool);

        out.tally.attempted = open.tally.attempted + closed.tally.attempted;
        out.tally.accepted = open.tally.accepted + closed.tally.accepted;
        out.tally.failed = open.tally.failed + closed.tally.failed;
        out.goodputPerS =
            static_cast<double>(closed.tally.accepted) / closed.wallS;
        out.goodputChunks = decisionChunkGoodput(closed, 2000);
        out.latenciesMs = closed.latenciesMs;
        out.info["open_lat_p50_ms"] = percentile(open.latenciesMs, 0.50);
        out.info["open_lat_p99_ms"] =
            chunkedPercentile({open.latenciesMs}, 1000, 0.99);
        const double lateP99 = chunkedPercentile({open.lateMs}, 2000, 0.99);
        const double lateP50 = percentile(open.lateMs, 0.50);
        const double busy = open.busyS / open.wallS;
        const double closedBusy = closed.busyS / closed.wallS;
        // A generator that is late, or busy all the time, measures
        // itself rather than the server.
        out.generatorBehind = lateP50 > kMaxLateP50Ms ||
                              busy > kMaxBusyFrac || closedBusy > kMaxBusyFrac;
        out.info["open_offered_per_s"] =
            static_cast<double>(kOpenOps) / open.wallS;
        out.info["open_goodput_per_s"] =
            static_cast<double>(open.tally.accepted) / open.wallS;
        out.info["late_p50_ms"] = lateP50;
        out.info["late_p99_ms"] = lateP99;
        out.info["busy_frac"] = busy;
        out.info["closed_busy_frac"] = closedBusy;

        const RecoveryCheck rc =
            recoverAndCompare(*server, dir.subdir("checkpoint"), check);
        out.recoverS = rc.seconds;
        if (!traced)
            return out;

        const double ops = static_cast<double>(out.tally.attempted);
        auto &L = out.layers;
        L["net.pump_us_per_op"] =
            pumpTracer.totalMicros("EpollTransport::pump") / ops;
        L["net.frames_per_batch"] =
            counters.batches ? static_cast<double>(counters.framesIn) /
                                   static_cast<double>(counters.batches)
                             : 0.0;
        L["net.bytes_per_op"] =
            static_cast<double>(counters.bytesIn + counters.bytesOut) / ops;
        L["net.client_send_us"] =
            genTracer.meanMicros("SocketClient::writeRaw");
        L["net.client_read_us"] =
            genTracer.meanMicros("SocketClient::readMessage");
        L["net.shed_frac"] =
            counters.framesIn ? static_cast<double>(counters.shed) /
                                    static_cast<double>(counters.framesIn)
                              : 0.0;
        L["net.backpressure_stalls"] =
            static_cast<double>(counters.backpressureStalls);
        L["server.evicted"] = static_cast<double>(server->sessionsEvicted());
        L["server.expired"] = static_cast<double>(server->sessionsExpired());
        L["server.duplicates"] =
            static_cast<double>(server->duplicateRequests() +
                                server->duplicateCompletions());
        L["loadgen.late_p99_ms"] = lateP99;
        L["loadgen.busy_frac"] = busy;
        L["loadgen.respond_us"] =
            responses ? respondS * 1e6 / static_cast<double>(responses) : 0.0;
        L["durability.snapshot_mb"] = rc.snapshotMb;
        replayLayers(sample, *server, genTracer, L);
        poolProbe(*server, fleet, check,
                  honestOps(order, kOpenOps + kClosedOps, kProbeOps),
                  env.poolWidth, env.seed, L);
        if (!env.traceOut.empty()) {
            genTracer.merge(pumpTracer);
            genTracer.writeTsv(env.traceOut);
        }
        return out;
    }

    void
    describe(JsonWriter &out) const override
    {
        out.field("devices", kSpec.devices)
            .field("plane_bytes", kSpec.planeBytes)
            .field("errors", kSpec.errors)
            .field("challenge_bits", kBits)
            .field("open_loop_rate_per_s", kOpenRatePerS)
            .field("open_loop_auths", kOpenOps)
            .field("closed_loop_auths", kClosedOps)
            .field("closed_loop_window", kWindow)
            .field("admission_budget", kBudget)
            .field("per_connection_queue", kConnQueue)
            .field("connections", connections)
            .field("generator_threads", 1)
            .field("warmup_auths", kSpec.devices)
            .field("max_late_p50_ms", kMaxLateP50Ms)
            .field("max_generator_busy_frac", kMaxBusyFrac)
            .field("durability", "off")
            .field("link", "tcp-loopback");
    }

  private:
    Env env;
    Fleet fleet;
    std::vector<std::uint64_t> order;
    std::size_t connections;
    std::vector<double> schedule;
};

} // namespace

std::unique_ptr<Workload>
makeWireWorkload(const Env &env)
{
    return std::make_unique<WireWorkload>(env);
}

} // namespace perfbench
