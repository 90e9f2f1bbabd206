/**
 * @file
 * The metric catalogue, in the order BENCHMARK.json lists it. An
 * untraced run prints every end-to-end metric; a traced run prints
 * every per-layer metric, 0 where the workload never enters that
 * layer (net on the in-process workloads, durability on the
 * in-memory ones).
 */

#ifndef PERFBENCH_METRICS_HPP
#define PERFBENCH_METRICS_HPP

#include <array>

namespace perfbench {

struct MetricDef
{
    const char *name;
    const char *unit;
};

inline constexpr std::array<MetricDef, 6> kEndToEnd{{
    {"goodput_per_s", "1/s"},
    {"lat_p50_ms", "ms"},
    {"lat_p99_ms", "ms"},
    {"setup_s", "s"},
    {"server_mem_mb", "MB"},
    {"recover_s", "s"},
}};

inline constexpr std::array<MetricDef, 30> kPerLayer{{
    {"net.pump_us_per_op", "us"},
    {"net.frames_per_batch", "count"},
    {"net.bytes_per_op", "bytes"},
    {"net.client_send_us", "us"},
    {"net.client_read_us", "us"},
    {"protocol.encode_us", "us"},
    {"protocol.decode_us", "us"},
    {"net.shed_frac", "ratio"},
    {"net.backpressure_stalls", "count"},
    {"server.evicted", "count"},
    {"server.expired", "count"},
    {"server.duplicates", "count"},
    {"core.evaluate_us_p50", "us"},
    {"core.evaluate_us_p99", "us"},
    {"core.ns_per_bit", "ns"},
    {"server.verify_us", "us"},
    {"server.batch_us_per_frame", "us"},
    {"pool.speedup_vs_1", "x"},
    {"durability.rotations_per_kop", "count"},
    {"durability.rotate_batch_ms", "ms"},
    {"durability.rotate_ms", "ms"},
    {"durability.fsyncs_per_op", "count"},
    {"durability.write_bytes_per_op", "bytes"},
    {"durability.snapshot_mb", "MB"},
    {"server.tick_us_per_round", "us"},
    {"server.stepups", "count"},
    {"loadgen.late_p99_ms", "ms"},
    {"loadgen.busy_frac", "ratio"},
    {"loadgen.respond_us", "us"},
    {"trace.overhead_frac", "ratio"},
}};

} // namespace perfbench

#endif // PERFBENCH_METRICS_HPP
