#include "server/front_end.hpp"

#include <exception>
#include <optional>
#include <string>
#include <utility>

#include "server/durability.hpp"

namespace authenticache::server {

FlowOutput
ServerFrontEnd::dispatch(const protocol::Message &msg)
{
    try {
        if (auto *req = std::get_if<protocol::AuthRequest>(&msg)) {
            SessionShard &sh = sessions.shardForDevice(req->deviceId);
            util::MutexLock lock(sh.mutex);
            return auth.onRequest(sh, *req);
        }
        if (auto *resp = std::get_if<protocol::ResponseMsg>(&msg)) {
            SessionShard &sh = sessions.shardForNonce(resp->nonce);
            util::MutexLock lock(sh.mutex);
            return auth.onResponse(sh, *resp);
        }
        if (auto *ack = std::get_if<protocol::RemapAck>(&msg)) {
            SessionShard &sh = sessions.shardForNonce(ack->nonce);
            util::MutexLock lock(sh.mutex);
            return remap.onAck(sh, *ack);
        }
        if (auto *proof =
                std::get_if<protocol::HeartbeatProof>(&msg)) {
            SessionShard &sh = sessions.shardForNonce(proof->nonce);
            util::MutexLock lock(sh.mutex);
            return heartbeat.onProof(sh, *proof);
        }
        FlowOutput out;
        if (std::get_if<protocol::ErrorMsg>(&msg) == nullptr)
            out.replies.push_back(
                protocol::ErrorMsg{"unexpected message"});
        return out;
    } catch (const std::exception &e) {
        // Programmer-error invariants aside, nothing a frame carries
        // may crash the verifier: reject the frame and move on.
        FlowOutput out;
        out.replies.push_back(
            protocol::ErrorMsg{std::string("server: ") + e.what()});
        return out;
    }
}

void
ServerFrontEnd::flushJournal()
{
    if (dur == nullptr)
        return;
    // Shard index order, under each shard's mutex: the journal byte
    // stream is a pure function of the batch contents, independent of
    // the thread count (the determinism contract extends to disk).
    for (unsigned s = 0; s < sessions.shardCount(); ++s) {
        SessionShard &sh = sessions.shard(s);
        util::MutexLock lock(sh.mutex);
        for (auto &event : sh.wal)
            dur->append(event);
        sh.wal.clear();
    }
    dur->sync();
}

void
ServerFrontEnd::mergeOutputs(std::span<Frame> frames,
                             std::vector<FlowOutput> &outputs,
                             std::uint64_t ordinal_base)
{
    // Sync-before-reply: everything this batch mutated becomes
    // durable before the first reply that could disclose it.
    flushJournal();
    for (std::size_t i = 0; i < outputs.size(); ++i) {
        if (frames[i].reply != nullptr) {
            for (const auto &reply : outputs[i].replies)
                frames[i].reply->send(reply);
        }
        if (outputs[i].report)
            log.push_back(*outputs[i].report);
        if (outputs[i].openedNonce)
            sessions.registerOpen(ordinal_base + i,
                                  *outputs[i].openedNonce);
    }
    sessions.enforceCap();
    if (dur != nullptr)
        dur->maybeRotate(devices.database());
}

void
ServerFrontEnd::handleBatch(std::span<Frame> frames,
                            util::ThreadPool &pool)
{
    sessions.expireAll();
    const std::size_t n = frames.size();
    const std::uint64_t base = sessions.reserveOrdinals(n);

    std::vector<FlowOutput> outputs(n);
    std::vector<std::optional<protocol::Message>> decoded(n);
    pool.parallelFor(n, [&](std::size_t i) {
        try {
            decoded[i] = protocol::decodeMessage(frames[i].bytes);
        } catch (const std::exception &e) {
            outputs[i].replies.push_back(protocol::ErrorMsg{
                std::string("decode: ") + e.what()});
        }
    });

    // Group frames by owning shard, preserving frame order within
    // each shard. Frames that need no session state (decode errors,
    // unexpected types) are answered right here.
    std::vector<std::vector<std::size_t>> perShard(
        sessions.shardCount());
    for (std::size_t i = 0; i < n; ++i) {
        if (!decoded[i])
            continue;
        const protocol::Message &m = *decoded[i];
        if (auto *req = std::get_if<protocol::AuthRequest>(&m)) {
            perShard[sessions.shardIndexForDevice(req->deviceId)]
                .push_back(i);
        } else if (auto *resp =
                       std::get_if<protocol::ResponseMsg>(&m)) {
            perShard[sessions.shardIndexForNonce(resp->nonce)]
                .push_back(i);
        } else if (auto *ack = std::get_if<protocol::RemapAck>(&m)) {
            perShard[sessions.shardIndexForNonce(ack->nonce)]
                .push_back(i);
        } else if (auto *proof =
                       std::get_if<protocol::HeartbeatProof>(&m)) {
            perShard[sessions.shardIndexForNonce(proof->nonce)]
                .push_back(i);
        } else if (std::get_if<protocol::ErrorMsg>(&m) == nullptr) {
            outputs[i].replies.push_back(
                protocol::ErrorMsg{"unexpected message"});
        }
    }

    std::vector<unsigned> active;
    for (unsigned s = 0; s < sessions.shardCount(); ++s) {
        if (!perShard[s].empty())
            active.push_back(s);
    }

    // Each shard's frames run on exactly one pool index, in input
    // order; all randomness is per-device, so the thread count only
    // changes wall-clock time, never results.
    pool.parallelFor(active.size(), [&](std::size_t k) {
        for (std::size_t i : perShard[active[k]])
            outputs[i] = dispatch(*decoded[i]);
    });

    mergeOutputs(frames, outputs, base);
}

void
ServerFrontEnd::startRemap(std::uint64_t device_id,
                           protocol::ReplySink &endpoint)
{
    const std::uint64_t base = sessions.reserveOrdinals(1);
    std::vector<FlowOutput> outputs(1);
    try {
        SessionShard &sh = sessions.shardForDevice(device_id);
        util::MutexLock lock(sh.mutex);
        outputs[0] = remap.start(sh, device_id);
    } catch (const std::exception &e) {
        outputs[0].replies.push_back(
            protocol::ErrorMsg{std::string("remap: ") + e.what()});
    }
    Frame frame;
    frame.reply = &endpoint;
    mergeOutputs(std::span<Frame>(&frame, 1), outputs, base);
}

void
ServerFrontEnd::startHeartbeat(std::uint64_t device_id,
                               protocol::ReplySink &endpoint)
{
    const std::uint64_t base = sessions.reserveOrdinals(1);
    std::vector<FlowOutput> outputs(1);
    try {
        SessionShard &sh = sessions.shardForDevice(device_id);
        util::MutexLock lock(sh.mutex);
        outputs[0] = heartbeat.start(sh, device_id);
    } catch (const std::exception &e) {
        outputs[0].replies.push_back(protocol::ErrorMsg{
            std::string("heartbeat: ") + e.what()});
    }
    Frame frame;
    frame.reply = &endpoint;
    mergeOutputs(std::span<Frame>(&frame, 1), outputs, base);
}

void
ServerFrontEnd::tickHeartbeats(protocol::ReplySink &endpoint)
{
    // Shard index order, single-threaded: the cadence walk (and the
    // RNG draws it triggers) must not depend on a pool width. Every
    // due session yields one FlowOutput so proactively opened remap
    // nonces rank with deterministic per-output ordinals.
    const std::uint64_t now = sessions.currentStep();
    std::vector<FlowOutput> outputs;
    for (unsigned s = 0; s < sessions.shardCount(); ++s) {
        SessionShard &sh = sessions.shard(s);
        util::MutexLock lock(sh.mutex);
        for (auto &out : heartbeat.tick(sh, now))
            outputs.push_back(std::move(out));
    }
    if (outputs.empty()) {
        // Nothing came due; skip the batch tail (journal sync would
        // be a no-op, but the rotation check is not free).
        return;
    }
    const std::uint64_t base =
        sessions.reserveOrdinals(outputs.size());
    std::vector<Frame> frames(outputs.size());
    for (auto &frame : frames)
        frame.reply = &endpoint;
    mergeOutputs(frames, outputs, base);
}

bool
ServerFrontEnd::stopHeartbeat(std::uint64_t device_id)
{
    SessionShard &sh = sessions.shardForDevice(device_id);
    util::MutexLock lock(sh.mutex);
    return heartbeat.stop(sh, device_id);
}

} // namespace authenticache::server
