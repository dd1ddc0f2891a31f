/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot paths: the
 * SECDED codec, parity, SRAM reads, cache word access, the full
 * hierarchy walk, RNG distributions, beam advancement, and the
 * parallel campaign engine at 1..8 worker threads. These guard the
 * performance budget that makes paper-scale campaigns tractable.
 */

#include <benchmark/benchmark.h>

#include "core/parallel_campaign.hh"
#include "ecc/parity.hh"
#include "ecc/secded.hh"
#include "mem/cache.hh"
#include "mem/memory_system.hh"
#include "rad/beam_source.hh"
#include "sim/rng.hh"

namespace {

using namespace xser;

void
BM_SecdedEncode(benchmark::State &state)
{
    uint64_t value = 0x0123456789abcdefULL;
    for (auto _ : state) {
        benchmark::DoNotOptimize(ecc::SecdedCodec::encode(value));
        value = value * 6364136223846793005ULL + 1;
    }
}
BENCHMARK(BM_SecdedEncode);

void
BM_SecdedDecodeClean(benchmark::State &state)
{
    const uint64_t value = 0x0123456789abcdefULL;
    const uint8_t check = ecc::SecdedCodec::encode(value);
    for (auto _ : state)
        benchmark::DoNotOptimize(ecc::SecdedCodec::decode(value, check));
}
BENCHMARK(BM_SecdedDecodeClean);

void
BM_SecdedDecodeSingleError(benchmark::State &state)
{
    const uint64_t value = 0x0123456789abcdefULL;
    const uint8_t check = ecc::SecdedCodec::encode(value);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            ecc::SecdedCodec::decode(value ^ 0x10, check));
    }
}
BENCHMARK(BM_SecdedDecodeSingleError);

void
BM_ParityCheck(benchmark::State &state)
{
    const uint64_t value = 0xfeedfacecafebeefULL;
    const uint8_t parity = ecc::ParityCodec::encode(value);
    for (auto _ : state) {
        benchmark::DoNotOptimize(ecc::ParityCodec::check(value, parity));
    }
}
BENCHMARK(BM_ParityCheck);

void
BM_SramArrayRead(benchmark::State &state)
{
    mem::SramArray array("bench", 4096, mem::Protection::Secded);
    for (size_t i = 0; i < array.words(); ++i)
        array.write(i, i * 0x9e3779b97f4a7c15ULL);
    size_t index = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(array.read(index));
        index = (index + 1) & 4095;
    }
}
BENCHMARK(BM_SramArrayRead);

void
BM_CacheReadWordHit(benchmark::State &state)
{
    mem::EdacReporter reporter;
    mem::CacheConfig config;
    config.name = "bench";
    config.sizeBytes = 256 * 1024;
    config.associativity = 8;
    mem::Cache cache(config, &reporter);
    mem::LineData line;
    line.fill(42);
    for (mem::Addr addr = 0; addr < 64 * 1024; addr += 64)
        cache.allocate(addr, line, false);
    mem::Addr addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.readWord(addr));
        addr = (addr + 64) & (64 * 1024 - 1);
    }
}
BENCHMARK(BM_CacheReadWordHit);

void
BM_HierarchyReadWarm(benchmark::State &state)
{
    mem::EdacReporter reporter;
    mem::MemorySystem memory(mem::MemorySystemConfig{}, &reporter);
    const mem::Addr base = memory.allocate(16 * 1024, "bench");
    for (size_t i = 0; i < 2048; ++i)
        memory.writeWord(0, base + 8 * i, i);
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(memory.readWord(0, base + 8 * i));
        i = (i + 1) & 2047;
    }
}
BENCHMARK(BM_HierarchyReadWarm);

void
BM_HierarchyReadStreaming(benchmark::State &state)
{
    mem::EdacReporter reporter;
    mem::MemorySystem memory(mem::MemorySystemConfig{}, &reporter);
    const size_t lines = 1 << 16;  // 4 MiB: misses throughout
    const mem::Addr base = memory.allocate(lines * 64, "bench");
    size_t line = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(memory.readWord(0, base + 64 * line));
        line = (line + 1) & (lines - 1);
    }
}
BENCHMARK(BM_HierarchyReadStreaming);

void
BM_RngPoissonSmallMean(benchmark::State &state)
{
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.nextPoisson(0.3));
}
BENCHMARK(BM_RngPoissonSmallMean);

void
BM_ParallelCampaignUnits(benchmark::State &state)
{
    // Eight tiny independent units (4 sessions x 2 replicates) on a
    // pool sized by the benchmark argument; wall time shrinks with
    // core count while results stay bit-identical.
    const auto jobs = static_cast<unsigned>(state.range(0));
    core::CampaignConfig config = core::BeamCampaign::paperCampaign(0.01);
    for (auto &session : config.sessions) {
        session.maxErrorEvents = 4;
        session.maxFluence = 6e8;
        session.warmupRounds = 1;
    }
    core::ParallelRunConfig run;
    run.jobs = jobs;
    run.replicates = 2;
    for (auto _ : state) {
        core::ParallelCampaignRunner runner(config, run);
        benchmark::DoNotOptimize(runner.executeAll());
    }
}
BENCHMARK(BM_ParallelCampaignUnits)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void
BM_BeamAdvanceQuantum(benchmark::State &state)
{
    mem::EdacReporter reporter;
    mem::MemorySystem memory(mem::MemorySystemConfig{}, &reporter);
    rad::CrossSectionModel xsection;
    rad::MbuModel mbu;
    rad::BeamConfig config;
    config.timeScale = 4e6;
    rad::BeamSource beam(config, &xsection, &mbu, memory.beamTargets());
    const Tick quantum = ticks::fromSeconds(2e-6);
    for (auto _ : state)
        beam.advance(quantum);
}
BENCHMARK(BM_BeamAdvanceQuantum);

} // namespace

BENCHMARK_MAIN();
