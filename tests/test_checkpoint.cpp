/**
 * @file
 * Checkpoint/restore tests.
 *
 * The contract under test is bitwise resume determinism: restoring a
 * checkpoint onto a freshly constructed simulation and running it
 * forward produces *exactly* the state an uninterrupted run reaches —
 * for every detector, recovery manager, fault model and
 * reconfiguration plan combination. The proof instrument is the
 * serializer itself: two networks are equal iff their saveState()
 * byte streams are equal.
 *
 * The sweep-level tests exercise the experiment runner's cell
 * checkpointing end to end: a real table bench is killed mid-sweep
 * (WORMNET_CRASH_AFTER_CELLS -> _Exit(86)), resumed, and its stdout
 * compared byte-for-byte against the committed golden table, at
 * several kill points and job counts.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>

#include <gtest/gtest.h>

#include "common/log.hh"
#include "common/serialize.hh"
#include "core/simulation.hh"
#include "detection/dwfg.hh"
#include "detector_fixture.hh"
#include "sim/checkpoint.hh"
#include "sim/network.hh"

namespace
{

using namespace wormnet;

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "wormnet_" + name;
}

std::vector<std::uint8_t>
snapshot(const Simulation &sim)
{
    Serializer s;
    sim.net().saveState(s);
    return s.bytes();
}

SimulationConfig
smallConfig()
{
    SimulationConfig cfg;
    cfg.radix = 4;
    cfg.dims = 2;
    cfg.flitRate = 0.45; // near saturation: detections and recovery
    cfg.oraclePeriod = 64;
    cfg.seed = 7;
    return cfg;
}

/**
 * Step the original @p a and the restored @p b @p post cycles side by
 * side, comparing their snapshots after each of the first 32 cycles,
 * after every 50th cycle from then on, and after the last. A resume
 * that lost dynamic state can diverge for a few cycles and then
 * re-converge, so two far-apart comparisons are not enough; the
 * first cycles also exercise the rebuild of the derived masks.
 */
void
expectRunsIdentical(Simulation &a, Simulation &b, Cycle post,
                    const std::string &tag)
{
    for (Cycle i = 1; i <= post; ++i) {
        a.net().step();
        b.net().step();
        if (i > 32 && i % 50 != 0 && i != post)
            continue;
        ASSERT_EQ(snapshot(a), snapshot(b))
            << tag << ": resumed run diverged " << i
            << " cycles after the save point";
    }
    EXPECT_EQ(a.net().now(), b.net().now());
}

/**
 * Run @p pre cycles (measurement window opens halfway), checkpoint,
 * restore into a second simulation, and verify both are bitwise
 * equal at the save point and throughout @p post further cycles.
 */
void
expectResumeIdentical(const SimulationConfig &cfg, Cycle pre,
                      Cycle post, const std::string &tag)
{
    Simulation a(cfg);
    a.net().run(pre / 2);
    a.net().startMeasurement();
    a.net().run(pre - pre / 2);

    const std::string path = tempPath("ckpt_" + tag + ".bin");
    a.saveCheckpoint(path);

    Simulation b(cfg);
    b.loadCheckpoint(path);
    std::remove(path.c_str());

    EXPECT_EQ(snapshot(a), snapshot(b))
        << tag << ": restored state diverges at the save point";
    expectRunsIdentical(a, b, post, tag);
}

TEST(CheckpointRoundTrip, NdmProgressiveSaturatedTorus)
{
    expectResumeIdentical(smallConfig(), 600, 600, "ndm");
}

TEST(CheckpointRoundTrip, PdmDetector)
{
    SimulationConfig cfg = smallConfig();
    cfg.detector = "pdm:16";
    expectResumeIdentical(cfg, 600, 600, "pdm");
}

TEST(CheckpointRoundTrip, TimeoutDetectorDorRouting)
{
    SimulationConfig cfg = smallConfig();
    cfg.detector = "timeout:64";
    cfg.routing = "dor";
    expectResumeIdentical(cfg, 600, 600, "timeout_dor");
}

TEST(CheckpointRoundTrip, RegressiveRecoveryWithFaults)
{
    SimulationConfig cfg = smallConfig();
    cfg.recovery = "regressive";
    cfg.faults = "link:0>1@150,router:5@250,link:10>14@500";
    cfg.faultRepair = 200;
    expectResumeIdentical(cfg, 700, 700, "regressive_faults");
}

TEST(CheckpointRoundTrip, DishaRecovery)
{
    SimulationConfig cfg = smallConfig();
    cfg.recovery = "disha";
    expectResumeIdentical(cfg, 600, 600, "disha");
}

TEST(CheckpointRoundTrip, ReconfigEpochsStraddleTheCheckpoint)
{
    SimulationConfig cfg = smallConfig();
    // Epochs on both sides of the cycle-600 checkpoint, including a
    // routing switch before it and restores after it.
    cfg.reconfig = "link-:0>1@150,routing:duato@300,router-:5@450,"
                   "link+:0>1@700,router+:5@800,routing:tfa@900";
    expectResumeIdentical(cfg, 600, 600, "reconfig");
}

TEST(CheckpointRoundTrip, FaultsAndReconfigOverlapOnOneLink)
{
    SimulationConfig cfg = smallConfig();
    // The 0>1 link is both faulted and admin-removed; the overlap is
    // live at the checkpoint and unwinds after it.
    cfg.faults = "link:0>1@200";
    cfg.faultRepair = 500;
    cfg.reconfig = "link-:0>1@300,link+:0>1@900";
    expectResumeIdentical(cfg, 600, 700, "overlap");
}

/** Deadlock-prone single-VC configuration under the DWFG, with a
 *  deliberately slow control plane so probe tokens linger in
 *  flight. */
SimulationConfig
dwfgCheckpointConfig()
{
    SimulationConfig cfg = smallConfig();
    cfg.detector = "dwfg:32:bw=1:hop=2";
    cfg.recovery = "regressive:16";
    cfg.vcs = 1;
    cfg.injectionLimit = false;
    cfg.lengths = "sl";
    cfg.flitRate = 0.6;
    return cfg;
}

TEST(CheckpointRoundTrip, DwfgDetectorWithInFlightProbes)
{
    const SimulationConfig cfg = dwfgCheckpointConfig();
    Simulation a(cfg);
    a.net().run(300);
    a.net().startMeasurement();

    // Park the save point on a cycle with probe tokens mid-network,
    // so the kill/resume covers the full probe lifecycle state.
    const auto *dwfg =
        dynamic_cast<const DwfgDetector *>(&a.detector());
    ASSERT_NE(dwfg, nullptr);
    Cycle guard = 0;
    while (dwfg->activeProbes() == 0 && guard++ < 3000)
        a.net().run(1);
    ASSERT_GT(dwfg->activeProbes(), 0u)
        << "scenario never put a probe in flight";

    const std::string path = tempPath("ckpt_dwfg.bin");
    a.saveCheckpoint(path);
    Simulation b(cfg);
    b.loadCheckpoint(path);
    std::remove(path.c_str());

    EXPECT_EQ(snapshot(a), snapshot(b))
        << "dwfg: restored state diverges at the save point";
    expectRunsIdentical(a, b, 600, "dwfg");
}

TEST(CheckpointRoundTrip, DwfgWithFaultsAndReconfig)
{
    SimulationConfig cfg = dwfgCheckpointConfig();
    cfg.faults = "link:0>1@150,router:5@250";
    cfg.faultRepair = 200;
    cfg.reconfig = "link-:2>3@300,link+:2>3@900";
    expectResumeIdentical(cfg, 600, 600, "dwfg_faults_reconfig");
}

TEST(CheckpointRoundTrip, DwfgDetectorStateStandalone)
{
    // Pure detector-state round-trip on the hand-driven ring, with a
    // probe guaranteed in flight (bandwidth 1, 4-cycle hops): the
    // restored detector must emit byte-identical streams and finish
    // the probe exactly like the original.
    DwfgParams p;
    p.trigger = 8;
    p.bandwidth = 1;
    p.hopLatency = 4;
    DwfgRing a(p);
    DwfgRing b(p);
    for (NodeId r = 0; r < 4; ++r)
        a.occupy(r);

    const std::vector<NodeId> all = {0, 1, 2, 3};
    while (a.now() < 200 && a.det().activeProbes() == 0)
        a.cycle(all);
    ASSERT_GT(a.det().activeProbes(), 0u);

    Serializer s;
    a.det().saveState(s);
    Deserializer d(s.bytes().data(), s.bytes().size());
    b.det().loadState(d);
    while (b.now() < a.now())
        b.cycleAdvance();

    {
        Serializer sa, sb;
        a.det().saveState(sa);
        b.det().saveState(sb);
        EXPECT_EQ(sa.bytes(), sb.bytes());
    }

    bool va = false;
    bool vb = false;
    for (int i = 0; i < 120; ++i) {
        va |= a.cycle(all);
        vb |= b.cycle(all);
    }
    EXPECT_TRUE(va);
    EXPECT_TRUE(vb);
    EXPECT_EQ(a.det().probesConfirmed(), b.det().probesConfirmed());
    {
        Serializer sa, sb;
        a.det().saveState(sa);
        b.det().saveState(sb);
        EXPECT_EQ(sa.bytes(), sb.bytes());
    }
}

/** An input VC of @p net whose only flit arrived in the cycle just
 *  simulated (count 1, newest flit ready from now()), or nullptr. */
const InputVc *
loneFreshFlitVc(const Network &net)
{
    const RouterParams &rp = net.routerParams();
    for (NodeId n = 0; n < net.numNodes(); ++n) {
        for (PortId p = 0; p < rp.numInPorts(); ++p) {
            for (VcId v = 0; v < rp.vcs; ++v) {
                const InputVc &vc = net.inputVc(n, p, v);
                if (vc.buf.count == 1 &&
                    vc.buf.newestReadyAt == net.now())
                    return &vc;
            }
        }
    }
    return nullptr;
}

TEST(CheckpointRoundTrip, LoneFlitArrivedInTheSaveCycle)
{
    // The worm buffer keeps no per-flit ready cycle: a lone flit's
    // readiness lives only in newestReadyAt, so the checkpoint must
    // carry it. Save right after a cycle in which some VC received
    // its only buffered flit.
    const SimulationConfig cfg = smallConfig();
    Simulation a(cfg);
    const InputVc *fresh = nullptr;
    for (int i = 0; i < 2000 && fresh == nullptr; ++i) {
        a.net().step();
        fresh = loneFreshFlitVc(a.net());
    }
    ASSERT_NE(fresh, nullptr);

    const std::string path = tempPath("ckpt_lone_flit.bin");
    a.saveCheckpoint(path);
    Simulation b(cfg);
    b.loadCheckpoint(path);
    std::remove(path.c_str());
    ASSERT_NE(loneFreshFlitVc(b.net()), nullptr);
    EXPECT_EQ(snapshot(a), snapshot(b));
    expectRunsIdentical(a, b, 300, "lone fresh flit");
}

TEST(CheckpointRoundTrip, ArbiterPointersMidRun)
{
    // The switch and injection round-robin pointers are dynamic
    // arbitration state: saved mid-run under load, some of each are
    // off their initial VC 0, and the restore must carry them. They
    // are compared directly, not only through the snapshot bytes: a
    // resume that dropped them diverges for a few cycles and can then
    // re-converge to the same state.
    const SimulationConfig cfg = smallConfig();
    Simulation a(cfg);
    a.net().run(600);
    const auto nonzero = [](const std::vector<std::uint8_t> &v) {
        return std::count_if(v.begin(), v.end(),
                             [](std::uint8_t r) { return r != 0; });
    };
    EXPECT_GT(nonzero(a.net().switchPointers()), 0);
    EXPECT_GT(nonzero(a.net().injectionPointers()), 0);

    const std::string path = tempPath("ckpt_arbiters.bin");
    a.saveCheckpoint(path);
    Simulation b(cfg);
    b.loadCheckpoint(path);
    std::remove(path.c_str());
    EXPECT_EQ(a.net().switchPointers(), b.net().switchPointers());
    EXPECT_EQ(a.net().injectionPointers(), b.net().injectionPointers());
    EXPECT_EQ(snapshot(a), snapshot(b));

    for (int i = 0; i < 600; ++i) {
        a.net().step();
        b.net().step();
        ASSERT_EQ(snapshot(a), snapshot(b))
            << "resumed run diverged " << i + 1
            << " cycles after the save point";
    }
    EXPECT_EQ(a.net().switchPointers(), b.net().switchPointers());
    EXPECT_EQ(a.net().injectionPointers(), b.net().injectionPointers());
}

TEST(CheckpointFile, ConfigMismatchIsFatal)
{
    SimulationConfig cfg = smallConfig();
    Simulation a(cfg);
    a.net().run(50);
    const std::string path = tempPath("ckpt_mismatch.bin");
    a.saveCheckpoint(path);

    SimulationConfig other = cfg;
    other.seed = cfg.seed + 1;
    Simulation b(other);
    EXPECT_THROW(b.loadCheckpoint(path), FatalError);
    std::remove(path.c_str());
}

TEST(CheckpointFile, PayloadCorruptionIsFatal)
{
    SimulationConfig cfg = smallConfig();
    Simulation a(cfg);
    a.net().run(50);
    const std::string path = tempPath("ckpt_corrupt.bin");
    a.saveCheckpoint(path);

    // Flip one bit of the last payload byte.
    {
        std::fstream f(path, std::ios::binary | std::ios::in |
                                 std::ios::out);
        ASSERT_TRUE(f.good());
        f.seekg(0, std::ios::end);
        const std::streamoff size = f.tellg();
        f.seekg(size - 1);
        char c = 0;
        f.get(c);
        f.seekp(size - 1);
        f.put(static_cast<char>(c ^ 0x01));
    }
    Simulation b(cfg);
    EXPECT_THROW(b.loadCheckpoint(path), FatalError);
    std::remove(path.c_str());
}

TEST(CheckpointFile, BadMagicAndVersionAreFatal)
{
    SimulationConfig cfg = smallConfig();
    Simulation a(cfg);
    a.net().run(50);
    const std::string path = tempPath("ckpt_header.bin");

    a.saveCheckpoint(path);
    {
        std::fstream f(path, std::ios::binary | std::ios::in |
                                 std::ios::out);
        f.seekp(0);
        f.put('X'); // magic no longer matches
    }
    {
        Simulation b(cfg);
        EXPECT_THROW(b.loadCheckpoint(path), FatalError);
    }

    a.saveCheckpoint(path);
    {
        std::fstream f(path, std::ios::binary | std::ios::in |
                                 std::ios::out);
        f.seekp(8);
        f.put(static_cast<char>(kCheckpointVersion + 1));
    }
    {
        Simulation b(cfg);
        EXPECT_THROW(b.loadCheckpoint(path), FatalError);
    }
    std::remove(path.c_str());
}

TEST(CheckpointFile, Version4IsRejected)
{
    // Version 4 stored a last-transmit cycle per output port and
    // 32-bit round-robin pointers per router; version 5 stores
    // one-byte pointers after all VC records. An old file must not
    // be misread.
    ASSERT_EQ(kCheckpointVersion, 5u);
    SimulationConfig cfg = smallConfig();
    Simulation a(cfg);
    a.net().run(50);
    const std::string path = tempPath("ckpt_v4.bin");
    a.saveCheckpoint(path);
    {
        std::fstream f(path, std::ios::binary | std::ios::in |
                                 std::ios::out);
        f.seekp(8); // little-endian u32 version after the magic
        f.put(static_cast<char>(4));
    }
    Simulation b(cfg);
    try {
        b.loadCheckpoint(path);
        ADD_FAILURE() << "a version-4 checkpoint was accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "has format version 4; this build reads version 5"),
                  std::string::npos)
            << e.what();
    }
    std::remove(path.c_str());
}

TEST(CheckpointFile, TruncationIsFatal)
{
    SimulationConfig cfg = smallConfig();
    Simulation a(cfg);
    a.net().run(50);
    const std::string path = tempPath("ckpt_trunc.bin");
    a.saveCheckpoint(path);

    bool ok = false;
    std::string content;
    {
        std::ifstream in(path, std::ios::binary);
        ok = in.good();
        std::ostringstream os;
        os << in.rdbuf();
        content = os.str();
    }
    ASSERT_TRUE(ok);
    {
        std::ofstream out(path,
                          std::ios::binary | std::ios::trunc);
        out.write(content.data(),
                  static_cast<std::streamsize>(content.size() / 2));
    }
    Simulation b(cfg);
    EXPECT_THROW(b.loadCheckpoint(path), FatalError);
    std::remove(path.c_str());
}

/** Run a command and capture its stdout plus raw wait status. */
std::string
capture(const std::string &command, int &wait_status)
{
    std::string out;
    FILE *pipe = popen(command.c_str(), "r");
    if (pipe == nullptr) {
        wait_status = -1;
        return out;
    }
    char buf[4096];
    std::size_t got;
    while ((got = fread(buf, 1, sizeof buf, pipe)) > 0)
        out.append(buf, got);
    wait_status = pclose(pipe);
    return out;
}

std::string
slurpFile(const std::string &path, bool &ok)
{
    std::ifstream in(path, std::ios::binary);
    ok = in.good();
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/**
 * Kill the quick Table 2 sweep after @p crash_cells finished cells,
 * resume from the saved sweep checkpoint, and require the resumed
 * stdout to equal the committed golden table byte-for-byte.
 */
void
checkKillResume(unsigned crash_cells, unsigned jobs)
{
    const std::string golden_path =
        std::string(WORMNET_GOLDEN_DIR) + "/table2_quick.txt";
    bool ok = false;
    const std::string content = slurpFile(golden_path, ok);
    ASSERT_TRUE(ok) << "missing golden file " << golden_path;

    const std::string argsTag = "# args:";
    ASSERT_EQ(content.compare(0, argsTag.size(), argsTag), 0);
    const auto eol = content.find('\n');
    ASSERT_NE(eol, std::string::npos);
    const std::string args =
        content.substr(argsTag.size(), eol - argsTag.size());
    const std::string expected = content.substr(eol + 1);

    std::ostringstream tag;
    tag << "sweep_k" << crash_cells << "_j" << jobs << ".bin";
    const std::string ckpt = tempPath(tag.str());
    std::remove(ckpt.c_str());

    std::ostringstream base;
    base << WORMNET_BENCH_DIR << "/table2_ndm_uniform" << args
         << " --jobs " << jobs << " --checkpoint " << ckpt
         << " --checkpoint-every 1";

    // Phase 1: crash mid-sweep with exit code 86.
    int status = -1;
    capture("WORMNET_CRASH_AFTER_CELLS=" +
                std::to_string(crash_cells) + " " + base.str() +
                " 2>/dev/null",
            status);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 86)
        << "bench did not crash at cell " << crash_cells;

    // Phase 2: resume; stdout must match the golden table exactly.
    const std::string resumed = capture(
        base.str() + " --resume " + ckpt + " 2>/dev/null", status);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    EXPECT_EQ(resumed, expected)
        << "table2 resumed after a crash at cell " << crash_cells
        << " with --jobs " << jobs
        << " is not byte-identical to the golden table";
    std::remove(ckpt.c_str());
}

TEST(SweepKillResume, EarlyKillJobs1) { checkKillResume(1, 1); }

TEST(SweepKillResume, MidKillJobs1) { checkKillResume(9, 1); }

TEST(SweepKillResume, LateKillJobs1) { checkKillResume(20, 1); }

TEST(SweepKillResume, EarlyKillJobs8) { checkKillResume(1, 8); }

TEST(SweepKillResume, MidKillJobs8) { checkKillResume(9, 8); }

TEST(SweepKillResume, LateKillJobs8) { checkKillResume(20, 8); }

} // namespace
