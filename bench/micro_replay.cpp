/**
 * @file
 * Trace-replay microbenchmark: capture a synthetic run's demand
 * stream, pack it into a .tdtz container, and measure the full
 * record-once/replay-many pipeline —
 *
 *  - container compression ratio vs the 24 B/record flat encoding
 *    (and vs the 40 B/record .tdt event trace it came from),
 *  - encode and decode throughput (Mrec/s, stored MB/s),
 *  - replay front-end req/s vs the synthetic front end on the same
 *    controller config,
 *  - a checksum over the decoded record stream that must match the
 *    source records (checksum_match — CI gates on it).
 *
 * Emits BENCH_replay.json (override with --out FILE); the thresholds
 * are enforced by tests/check_replay_bench.sh in CI.
 *
 * Usage: micro_replay [--ops N] [--warmup N] [--workload NAME]
 *                     [--seed N] [--reps N] [--out FILE]
 */

#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "system/system.hh"
#include "trace/tdtz.hh"
#include "trace/trace.hh"

namespace
{

using namespace tsim;

std::uint64_t
fnv(std::uint64_t h, std::uint64_t v)
{
    return (h ^ v) * 1099511628211ULL;
}

/** Order-sensitive checksum of a record stream. */
std::uint64_t
streamChecksum(const std::vector<ReplayRecord> &recs)
{
    std::uint64_t h = 14695981039346656037ULL;
    for (const ReplayRecord &r : recs) {
        h = fnv(h, r.addr);
        h = fnv(h, r.size);
        h = fnv(h, r.isWrite);
        h = fnv(h, r.delta);
    }
    return h;
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

struct BenchCfg
{
    std::uint64_t opsPerCore = 30000;
    std::uint64_t warmupOpsPerCore = 60000;
    std::uint64_t seed = 1;
    std::string workload = "is.C";
};

SystemConfig
baseCfg(const BenchCfg &bc)
{
    SystemConfig cfg;
    cfg.cores.opsPerCore = bc.opsPerCore;
    cfg.warmupOpsPerCore = bc.warmupOpsPerCore;
    cfg.seed = bc.seed;
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchCfg bc;
    unsigned reps = 3;
    std::string out = "BENCH_replay.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--ops") == 0 && i + 1 < argc) {
            bc.opsPerCore = parseCount("--ops", argv[++i]);
        } else if (std::strcmp(argv[i], "--warmup") == 0 &&
                   i + 1 < argc) {
            bc.warmupOpsPerCore = parseCount("--warmup", argv[++i]);
        } else if (std::strcmp(argv[i], "--workload") == 0 &&
                   i + 1 < argc) {
            bc.workload = argv[++i];
        } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
            bc.seed = parseCount("--seed", argv[++i]);
        } else if (std::strcmp(argv[i], "--reps") == 0 &&
                   i + 1 < argc) {
            reps = static_cast<unsigned>(
                parseCount("--reps", argv[++i], UINT_MAX));
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--ops N] [--warmup N] "
                         "[--workload NAME] [--seed N] [--reps N] "
                         "[--out FILE]\n",
                         argv[0]);
            return 1;
        }
    }
    if (bc.opsPerCore == 0 || reps == 0) {
        std::fprintf(stderr, "--ops and --reps must be > 0\n");
        return 1;
    }

    const std::string tdt_path = "micro_replay_cap.tdt";
    const std::string tdtz_path = "micro_replay_cap.tdtz";

    // --- Capture: synthetic run with the event tracer on. This is
    // also the synthetic-front-end throughput baseline.
    SystemConfig cap_cfg = baseCfg(bc);
    cap_cfg.tracePath = tdt_path;
    const SimReport synth =
        runOne(cap_cfg, findWorkload(bc.workload));
    const std::uint64_t demands =
        synth.demandReads + synth.demandWrites;
    const double synth_req_per_sec =
        static_cast<double>(demands) / synth.hostPerf.hostSeconds;

    // --- Project the demand stream out of the event trace.
    TraceLoadResult res = loadTrace(tdt_path);
    if (!res.ok) {
        std::fprintf(stderr, "FAIL: %s\n", res.error.c_str());
        return 1;
    }
    const std::vector<ReplayRecord> recs = projectDemands(res.trace);
    if (recs.size() != demands) {
        std::fprintf(stderr,
                     "FAIL: projected %zu records, expected %llu\n",
                     recs.size(), (unsigned long long)demands);
        return 1;
    }
    const std::uint64_t source_checksum = streamChecksum(recs);

    // --- Encode (best of reps).
    double encode_secs = 1e30;
    for (unsigned i = 0; i < reps; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        TdtzWriter w(tdtz_path);
        for (const ReplayRecord &r : recs)
            w.append(r);
        w.finish();
        encode_secs = std::min(encode_secs, secondsSince(t0));
    }

    const auto tdt_bytes = std::filesystem::file_size(tdt_path);
    const auto tdtz_bytes = std::filesystem::file_size(tdtz_path);
    const std::uint64_t flat_bytes =
        recs.size() * tdtzFlatRecordBytes;
    const double ratio = static_cast<double>(flat_bytes) /
                         static_cast<double>(tdtz_bytes);

    // --- Decode (best of reps), checksum the decoded stream.
    double decode_secs = 1e30;
    std::uint64_t decoded_checksum = 0;
    for (unsigned i = 0; i < reps; ++i) {
        std::vector<ReplayRecord> back;
        back.reserve(recs.size());
        const auto t0 = std::chrono::steady_clock::now();
        TdtzReader r;
        if (!r.open(tdtz_path)) {
            std::fprintf(stderr, "FAIL: %s\n", r.error().c_str());
            return 1;
        }
        ReplayRecord rec;
        while (r.next(rec))
            back.push_back(rec);
        const double secs = secondsSince(t0);
        if (!r.ok()) {
            std::fprintf(stderr, "FAIL: %s\n", r.error().c_str());
            return 1;
        }
        decode_secs = std::min(decode_secs, secs);
        const std::uint64_t sum = streamChecksum(back);
        if (i > 0 && sum != decoded_checksum) {
            std::fprintf(stderr,
                         "FAIL: decode is not deterministic\n");
            return 1;
        }
        decoded_checksum = sum;
    }
    const bool checksum_match = decoded_checksum == source_checksum;
    if (!checksum_match)
        std::fprintf(stderr,
                     "FAIL: decoded stream checksum mismatch\n");

    // --- Replay the container through the same system shape.
    SystemConfig rep_cfg = baseCfg(bc);
    rep_cfg.replay.path = tdtz_path;
    const SimReport rep = runOne(rep_cfg, findWorkload(bc.workload));
    if (rep.demandReads + rep.demandWrites != recs.size()) {
        std::fprintf(stderr,
                     "FAIL: replay issued %llu demands, expected "
                     "%zu\n",
                     (unsigned long long)(rep.demandReads +
                                          rep.demandWrites),
                     recs.size());
        return 1;
    }
    const double replay_req_per_sec =
        static_cast<double>(recs.size()) /
        rep.hostPerf.hostSeconds;

    const double nrec = static_cast<double>(recs.size());
    const double decode_mrec = nrec / decode_secs / 1e6;
    const double decode_mb =
        static_cast<double>(tdtz_bytes) / decode_secs / 1e6;
    const double encode_mrec = nrec / encode_secs / 1e6;

    std::printf("%zu records: .tdt %llu B, .tdtz %llu B, flat %llu B "
                "(ratio %.2fx, codec %s)\n",
                recs.size(), (unsigned long long)tdt_bytes,
                (unsigned long long)tdtz_bytes,
                (unsigned long long)flat_bytes, ratio,
                tdtzZstdAvailable() ? "zstd" : "varint");
    std::printf("encode %.2f Mrec/s, decode %.2f Mrec/s "
                "(%.1f MB/s stored), checksum %s\n",
                encode_mrec, decode_mrec, decode_mb,
                checksum_match ? "match" : "MISMATCH");
    std::printf("frontend req/s: synthetic %.0f, replay %.0f "
                "(%.2fx)\n",
                synth_req_per_sec, replay_req_per_sec,
                replay_req_per_sec / synth_req_per_sec);

    if (std::FILE *f = std::fopen(out.c_str(), "w")) {
        std::fprintf(
            f,
            "{\n"
            "  \"bench\": \"micro_replay\",\n"
            "  \"workload\": \"%s\",\n"
            "  \"ops_per_core\": %llu,\n"
            "  \"seed\": %llu,\n"
            "  \"records\": %zu,\n"
            "  \"codec\": \"%s\",\n"
            "  \"tdt_bytes\": %llu,\n"
            "  \"tdtz_bytes\": %llu,\n"
            "  \"flat_bytes\": %llu,\n"
            "  \"compression_ratio\": %.3f,\n"
            "  \"encode_mrec_per_sec\": %.3f,\n"
            "  \"decode_mrec_per_sec\": %.3f,\n"
            "  \"decode_mb_per_sec\": %.3f,\n"
            "  \"synthetic_req_per_sec\": %.0f,\n"
            "  \"replay_req_per_sec\": %.0f,\n"
            "  \"replay_vs_synthetic\": %.3f,\n"
            "  \"checksum_match\": %s\n"
            "}\n",
            bc.workload.c_str(), (unsigned long long)bc.opsPerCore,
            (unsigned long long)bc.seed, recs.size(),
            tdtzZstdAvailable() ? "zstd" : "varint",
            (unsigned long long)tdt_bytes,
            (unsigned long long)tdtz_bytes,
            (unsigned long long)flat_bytes, ratio, encode_mrec,
            decode_mrec, decode_mb, synth_req_per_sec,
            replay_req_per_sec,
            replay_req_per_sec / synth_req_per_sec,
            checksum_match ? "true" : "false");
        std::fclose(f);
    } else {
        std::fprintf(stderr, "cannot write %s\n", out.c_str());
        return 1;
    }
    return checksum_match ? 0 : 1;
}
