//! The broker benchmark: open-loop `plan` reads and durable mixed
//! writes against `sufs` brokers spawned in process on loopback, then a
//! saturated closed loop for their capacity and CPU cost, with every
//! reply checked against in-process synthesis.
//!
//! ```text
//! cargo run --release --manifest-path brokerbench/Cargo.toml -- \
//!     --workload plan_read --seed 1 --seconds 36 --trace 0
//! ```
//!
//! With `--trace 0` the last line of standard output is a JSON object
//! with the end-to-end metrics; with `--trace 1` it carries the
//! per-layer metrics instead and the spans are written to
//! `brokerbench/out/`. See `brokerbench/README.md` for the workloads,
//! the metrics and what each layer metric should move.

mod calib;
mod check;
mod gen;
mod layers;
mod load;
mod stats;
mod trace;

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use sufs_broker::{
    json, verdict_json, AckMode, Broker, BrokerClient, BrokerConfig, BrokerHandle, Json,
};
use sufs_core::plans::DEFAULT_PLAN_CAP;
use sufs_core::scenario::{parse_scenario, Scenario as Parsed};
use sufs_core::{synthesize_with, Engine, SynthesisOptions};
use sufs_hexpr::{parse_hist, Hist};
use sufs_net::Repository;
use sufs_rng::{Rng, SeedableRng, StdRng};

use check::{Model, Record};
use gen::{Generator, Kind, Op, Scenario, Shape, CONNS};
use load::{Pace, Sender};
use stats::{completion_rate, mean, median, percentile, window_percentiles, windowed_percentile};
use trace::Tracer;

/// How the brokers of a workload are deployed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Nodes {
    /// One node, no state directory.
    Memory,
    /// One node journaling to a state directory.
    Durable,
    /// A primary and two followers, all durable, `ack: quorum`: the
    /// replication probe of a traced durable run.
    Quorum,
}

struct Workload {
    name: &'static str,
    shape: Shape,
    nodes: Nodes,
    /// The nominal rate, requests per second.
    rate: f64,
    /// Share of the requests that are writes; the rest are `plan`s.
    write_share: f64,
    /// The capacity the saturated phase was calibrated at, requests per
    /// second: it sizes that phase's schedule, not its result.
    capacity_rate: f64,
    /// The rate of a writes-only phase after the saturated one, for a
    /// workload whose nominal mix has no writes.
    write_probe_rate: Option<f64>,
}

const SHAPE_WIDE: Shape = Shape {
    services: 256,
    kinds: 4,
    admissible: 2,
    violating: 1,
    clients: 16,
    policies: 4,
    toggled: 8,
};

const SHAPE_SMALL: Shape = Shape {
    services: 32,
    ..SHAPE_WIDE
};

fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "plan_read",
            shape: SHAPE_WIDE,
            nodes: Nodes::Memory,
            rate: 1000.0,
            write_share: 0.0,
            capacity_rate: 4000.0,
            write_probe_rate: Some(500.0),
        },
        Workload {
            name: "mixed_write",
            shape: SHAPE_SMALL,
            nodes: Nodes::Durable,
            rate: 150.0,
            write_share: 0.15,
            capacity_rate: 1000.0,
            write_probe_rate: None,
        },
    ]
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// The tail percentile printed beside the metrics. p99 on a shared
/// 2-vCPU VM measures host scheduling stalls (an idle sleep loop
/// oversleeps by ≥ 5 ms at p99); p90 less so, but it still spreads too
/// much between runs to be held to a bound.
const TAIL: f64 = 90.0;
/// Spans of time of the nominal window whose median a latency is.
const SUB_WINDOWS: usize = 8;
/// Requests kept in flight in the saturated phase.
const SATURATED_DEPTH: usize = 32;
/// Blocks the saturated phase is cut into; the reference computation
/// ([`calib`]) is timed before the first and after each.
const SATURATED_BLOCKS: usize = 64;
/// Untimed warm-up at the nominal load before the measured window.
const WARMUP_SECS: f64 = 1.0;
/// How long after its due time a request may still be answered.
const GRACE: Duration = Duration::from_secs(10);
/// Nice level of the thread that sends the load while it runs.
const SENDER_NICE: i32 = -10;
/// Shares of `--seconds` for the nominal window, the saturated phase
/// (at its calibrated capacity) and the write probe.
const WINDOW_SHARE: f64 = 0.4;
const SATURATED_SHARE: f64 = 0.5;
const PROBE_SHARE: f64 = 0.1;
/// Write rate of the replication probe, requests per second.
const REPLICATION_RATE: f64 = 100.0;
/// Clients the enumerative oracle re-checks per run, among those whose
/// plan space the enumerative engine accepts.
const ORACLE_CLIENTS: usize = 1;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| format!("bad seconds `{value}`"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace `{value}` (want 0 or 1)")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if seconds.is_nan() || seconds < 1.0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// The brokers of one deployment; the first is the primary.
struct Cluster {
    nodes: Vec<BrokerHandle>,
    dirs: Vec<PathBuf>,
}

impl Cluster {
    fn primary(&self) -> SocketAddr {
        self.nodes[0].addr()
    }

    fn stop(self) {
        // Followers first, so none is left chasing a vanished primary.
        let mut nodes = self.nodes;
        while let Some(n) = nodes.pop() {
            n.join();
        }
    }
}

fn request(addr: SocketAddr, req: &Json) -> Result<Json, String> {
    let mut c = BrokerClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    c.request(req)
        .map_err(|e| format!("request to {addr}: {e}"))
}

fn stats_of(addr: SocketAddr) -> Result<Json, String> {
    request(addr, &Json::obj().with("cmd", "stats"))
}

fn field<'a>(j: &'a Json, path: &[&str]) -> Option<&'a Json> {
    path.iter().try_fold(j, |j, k| j.get(k))
}

fn num(j: &Json, path: &[&str]) -> f64 {
    field(j, path).and_then(Json::as_f64).unwrap_or(0.0)
}

/// Polls `done` every millisecond for up to ten seconds.
fn wait_for(what: &str, mut done: impl FnMut() -> Result<bool, String>) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done()? {
        if Instant::now() > deadline {
            return Err(format!("timed out waiting for {what}"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(())
}

fn applied_seq(addr: SocketAddr) -> Result<f64, String> {
    Ok(num(&stats_of(addr)?, &["replication", "applied_seq"]))
}

/// Spawns a follower of `primary` journaling to `dir`.
fn spawn_follower(primary: SocketAddr, dir: &Path) -> Result<BrokerHandle, String> {
    Broker::spawn(BrokerConfig {
        state_dir: Some(dir.to_owned()),
        follow: Some(primary.to_string()),
        ack: AckMode::Quorum,
        cluster_size: 3,
        ..BrokerConfig::default()
    })
    .map_err(|e| format!("spawn follower: {e}"))
}

/// Waits until every follower has applied everything the primary has.
fn wait_caught_up(cluster: &Cluster) -> Result<(), String> {
    let primary = cluster.primary();
    wait_for("followers to catch up", || {
        let want = applied_seq(primary)?;
        for f in &cluster.nodes[1..] {
            if applied_seq(f.addr())? < want {
                return Ok(false);
            }
        }
        Ok(true)
    })
}

/// Spawns the workload's brokers, publishes the scenario over the wire
/// and reads every client's plan once: a warmed deployment.
fn set_up(deploy: Nodes, sc: &Scenario, state: &Path) -> Result<Cluster, String> {
    let dir = |i: usize| state.join(format!("n{i}"));
    let spawn = |cfg: BrokerConfig| Broker::spawn(cfg).map_err(|e| format!("spawn broker: {e}"));
    let (nodes, dirs) = match deploy {
        Nodes::Memory => (vec![spawn(BrokerConfig::default())?], vec![]),
        Nodes::Durable => {
            let primary = spawn(BrokerConfig {
                state_dir: Some(dir(0)),
                ..BrokerConfig::default()
            })?;
            (vec![primary], vec![dir(0)])
        }
        Nodes::Quorum => {
            let primary = spawn(BrokerConfig {
                state_dir: Some(dir(0)),
                ack: AckMode::Quorum,
                cluster_size: 3,
                ..BrokerConfig::default()
            })?;
            let addr = primary.addr();
            let nodes = vec![
                primary,
                spawn_follower(addr, &dir(1))?,
                spawn_follower(addr, &dir(2))?,
            ];
            wait_for("followers to connect", || {
                Ok(num(&stats_of(addr)?, &["replication", "follower_count"]) >= 2.0)
            })?;
            (nodes, (0..3).map(dir).collect())
        }
    };
    let cluster = Cluster { nodes, dirs };
    let mut client = BrokerClient::connect(cluster.primary()).map_err(|e| e.to_string())?;
    let reply = client
        .publish_scenario(&sc.text)
        .map_err(|e| e.to_string())?;
    if reply.bool_field("ok") != Some(true)
        || (deploy == Nodes::Quorum && reply.bool_field("quorum") != Some(true))
    {
        return Err(format!("publish_scenario refused: {reply}"));
    }
    for c in &sc.clients {
        let reply = client
            .request(&gen::plan_request(&c.text))
            .map_err(|e| e.to_string())?;
        if reply.bool_field("ok") != Some(true) {
            return Err(format!("first plan for {} failed: {reply}", c.name));
        }
    }
    if deploy == Nodes::Quorum {
        wait_caught_up(&cluster)?;
    }
    Ok(cluster)
}

/// The filesystem type of `path`, from `statfs(2)`.
fn fs_type(path: &Path) -> Result<&'static str, String> {
    use std::os::unix::ffi::OsStrExt;
    extern "C" {
        fn statfs(path: *const std::os::raw::c_char, buf: *mut u64) -> std::os::raw::c_int;
    }
    let c_path = std::ffi::CString::new(path.as_os_str().as_bytes()).map_err(|e| e.to_string())?;
    // `struct statfs` is 120 bytes on 64-bit Linux and starts with the
    // filesystem magic; the buffer is larger and 8-byte aligned.
    let mut buf = [0u64; 32];
    // SAFETY: `c_path` is a NUL-terminated string that outlives the call
    // and `buf` is writable, aligned and larger than `struct statfs`.
    let rc = unsafe { statfs(c_path.as_ptr(), buf.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!(
            "statfs {}: {}",
            path.display(),
            std::io::Error::last_os_error()
        ));
    }
    Ok(match buf[0] as u32 {
        0x0102_1994 => "tmpfs",
        0x8584_58f6 => "ramfs",
        0xEF53 => "ext4",
        0x5846_5342 => "xfs",
        0x9123_683E => "btrfs",
        0x794C_7630 => "overlayfs",
        _ => "other",
    })
}

/// FNV-1a over every file under `dir`, in path order: which sources
/// the measured program was built from, when no git metadata is there.
fn tree_hash(dir: &Path, h: &mut u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            tree_hash(&p, h);
        } else if let Ok(bytes) = std::fs::read(&p) {
            for b in p.to_string_lossy().bytes().chain(bytes) {
                *h = (*h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
        }
    }
}

/// The commit the checkout is at, read from `.git` inside it (no git
/// process, nothing outside the checkout).
fn git_rev(root: &Path) -> Option<String> {
    let head = std::fs::read_to_string(root.join(".git/HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => Some(head.to_owned()),
        Some(r) => std::fs::read_to_string(root.join(".git").join(r))
            .ok()
            .map(|s| s.trim().to_owned()),
    }
}

fn is_plan(k: Kind) -> bool {
    matches!(k, Kind::Plan(_))
}

fn is_write(k: Kind) -> bool {
    matches!(k, Kind::Write(_))
}

/// One driven phase: the schedule it ran, due times and records.
struct Phase {
    name: &'static str,
    ops: Vec<Op>,
    due: Vec<u64>,
    records: Vec<Record>,
    /// Length of each reply frame as received (header included), 0 for
    /// none.
    reply_bytes: Vec<usize>,
    /// CPU the brokers spent while the phase ran, ns.
    broker_cpu_ns: u64,
    /// CPU time of the reference computation on the brokers' CPU just
    /// before and just after the phase, ns (saturated blocks only).
    reference_ns: Option<(u64, u64)>,
}

impl Phase {
    /// `(due time, latency µs from due time)` of the answered requests
    /// matching `pick`.
    fn latencies(&self, pick: impl Fn(Kind) -> bool) -> Vec<(u64, f64)> {
        self.records
            .iter()
            .zip(&self.due)
            .filter(|(r, _)| pick(r.kind) && !r.failed())
            .filter_map(|(r, &d)| Some((d, r.recv_ns?.saturating_sub(d) as f64 / 1e3)))
            .collect()
    }
}

fn run_phase(
    sender: &mut Sender,
    name: &'static str,
    ops: Vec<Op>,
    pace: Pace,
) -> Result<Phase, String> {
    let cpu = load::others_cpu_ns();
    let driven = sender
        .drive(&ops, pace, GRACE)
        .map_err(|e| format!("load: {e}"))?;
    let broker_cpu_ns = load::others_cpu_ns() - cpu;
    let reply_bytes = driven
        .outcomes
        .iter()
        .map(|o| o.recv_ns.map_or(0, |_| o.reply.len() + 4))
        .collect();
    let records = ops
        .iter()
        .zip(driven.outcomes)
        .map(|(op, o)| Record {
            conn: op.conn,
            kind: op.kind,
            sent_ns: o.sent_ns,
            recv_ns: o.recv_ns,
            reply: o
                .recv_ns
                .and_then(|_| std::str::from_utf8(&o.reply).ok())
                .and_then(|s| json::parse(s).ok()),
        })
        .collect();
    Ok(Phase {
        name,
        ops,
        due: driven.due_ns,
        records,
        reply_bytes,
        broker_cpu_ns,
        reference_ns: None,
    })
}

/// Checks that every node of `cluster` serves `repo`.
fn check_repos(
    cluster: &Cluster,
    repo: &Repository,
    problems: &mut Vec<String>,
) -> Result<(), String> {
    let repo_reply = request(cluster.primary(), &Json::obj().with("cmd", "repo"))?;
    let mut want: Vec<(String, String)> = repo
        .iter()
        .map(|(l, s)| (l.to_string(), s.to_string()))
        .collect();
    want.sort();
    let mut got: Vec<(String, String)> = repo_reply
        .get("services")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|s| {
            (
                s.str_field("location").unwrap_or("").to_owned(),
                s.str_field("service").unwrap_or("").to_owned(),
            )
        })
        .collect();
    got.sort();
    if got != want {
        problems.push(format!(
            "final repository differs: {} services served, {} expected",
            got.len(),
            want.len()
        ));
    }
    for f in &cluster.nodes[1..] {
        if request(f.addr(), &Json::obj().with("cmd", "repo"))? != repo_reply {
            problems.push(format!(
                "follower {} repository differs from the primary's",
                f.addr()
            ));
        }
    }
    Ok(())
}

/// The checks made once the load has stopped: the final repository, and
/// full replies against in-process synthesis and the enumerative oracle.
fn final_checks(
    cluster: &Cluster,
    sc: &Scenario,
    model: &Model,
    final_state: [usize; CONNS],
    w: &Workload,
    seed: u64,
    problems: &mut Vec<String>,
) -> Result<(), String> {
    let repo = model.repo_at(final_state);
    let registry = model.registry();
    check_repos(cluster, &repo, problems)?;
    let mut client = BrokerClient::connect(cluster.primary()).map_err(|e| e.to_string())?;

    let hists: Vec<Hist> = sc
        .clients
        .iter()
        .map(|c| parse_hist(&c.text).expect("generated clients parse"))
        .collect();
    let opts = |engine| SynthesisOptions {
        engine,
        ..SynthesisOptions::default()
    };
    let plan = |text: &str, engine: &str| {
        Json::obj()
            .with("cmd", "plan")
            .with("client", text)
            .with("engine", engine)
    };
    let mut served = Vec::new();
    for (c, hist) in sc.clients.iter().zip(&hists) {
        let reply = client
            .request(&plan(&c.text, "compositional"))
            .map_err(|e| e.to_string())?;
        let local = synthesize_with(hist, &repo, registry, &opts(Engine::Compositional), None)
            .map_err(|e| format!("in-process synthesis: {e}"))?;
        let verdicts: Vec<Json> = local.report.verdicts().iter().map(verdict_json).collect();
        let valid: Vec<Json> = local
            .report
            .valid_plans()
            .map(|p| Json::str(p.to_string()))
            .collect();
        if reply.get("verdicts") != Some(&Json::Arr(verdicts))
            || reply.get("valid") != Some(&Json::Arr(valid))
        {
            problems.push(format!(
                "full compositional reply for {} differs from in-process synthesis",
                c.name
            ));
        }
        served.push(reply);
    }

    // The enumerative oracle, an engine the broker does not serve from,
    // walks services^requests candidates, so it re-checks a seeded
    // sample of the clients whose plan space it accepts (two sessions
    // on 256 services: 65 536 candidates) against the served plans.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0AC1E);
    let mut sample: Vec<usize> = (0..sc.clients.len())
        .filter(|&i| {
            u32::try_from(sc.clients[i].requests)
                .ok()
                .and_then(|r| w.shape.services.checked_pow(r))
                .is_some_and(|n| n <= DEFAULT_PLAN_CAP)
        })
        .collect();
    rng.shuffle(&mut sample);
    for &i in sample.iter().take(ORACLE_CLIENTS) {
        let started = Instant::now();
        let oracle = synthesize_with(&hists[i], &repo, registry, &opts(Engine::Enumerative), None)
            .map_err(|e| format!("in-process enumeration: {e}"))?;
        let mut want: Vec<String> = oracle.report.valid_plans().map(|p| p.to_string()).collect();
        let mut got: Vec<String> = served[i]
            .get("valid")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|p| p.as_str().map(str::to_owned))
            .collect();
        want.sort();
        got.sort();
        if got != want {
            problems.push(format!(
                "valid plans served for {} differ from the enumerative oracle's",
                sc.clients[i].name
            ));
        }
        eprintln!(
            "brokerbench: enumerative oracle for {} ({} requests): {:.2} s",
            sc.clients[i].name,
            sc.clients[i].requests,
            started.elapsed().as_secs_f64()
        );
    }
    Ok(())
}

/// `(name, value, unit)` in the order they are printed.
type Metrics = Vec<(&'static str, f64, &'static str)>;

struct Run {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Metrics,
}

fn run(args: &Args, w: &Workload, root: &Path) -> Result<Run, String> {
    let out = root.join("brokerbench").join("out");
    let state = out.join(format!("state-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state);
    std::fs::create_dir_all(&state).map_err(|e| format!("create {}: {e}", state.display()))?;
    let fs = fs_type(&state)?;
    let result = if w.nodes != Nodes::Memory && matches!(fs, "tmpfs" | "ramfs") {
        Err(format!(
            "state dir {} is on {fs}: durable workloads need a disk",
            state.display()
        ))
    } else {
        run_in(args, w, root, &state, fs)
    };
    let _ = std::fs::remove_dir_all(&state);
    result
}

fn provenance(args: &Args, w: &Workload, root: &Path, fs: &str) -> Json {
    let mut source = 0xcbf2_9ce4_8422_2325u64;
    tree_hash(&root.join("crates"), &mut source);
    Json::obj()
        .with("workload", w.name)
        .with("seed", args.seed)
        .with("seconds", args.seconds)
        .with("trace", args.trace)
        .with("git_rev", git_rev(root).map_or(Json::Null, Json::str))
        .with("source_fnv64", format!("{source:016x}"))
        .with(
            "nproc",
            std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
        )
        .with("state_fs", fs)
        .with("services", w.shape.services as u64)
        .with("clients", w.shape.clients as u64)
        .with("nominal_rps", w.rate)
        .with("write_share", w.write_share)
        .with("capacity_calibrated_rps", w.capacity_rate)
        .with("saturated_depth", SATURATED_DEPTH as u64)
        .with("saturated_blocks", SATURATED_BLOCKS as u64)
        .with(
            "write_probe_rps",
            w.write_probe_rate.map_or(Json::Null, Json::Num),
        )
        .with("sub_windows", SUB_WINDOWS as u64)
}

fn run_in(args: &Args, w: &Workload, root: &Path, state: &Path, fs: &str) -> Result<Run, String> {
    println!(
        "{}",
        Json::obj().with("provenance", provenance(args, w, root, fs))
    );
    let sc = gen::scenario(w.shape, args.seed);
    let parsed = parse_scenario(&sc.text).map_err(|e| format!("generated scenario: {e}"))?;

    // The brokers run on one CPU and the sender on another, where there
    // are two, so the sender's wake-ups do not land on the brokers' CPU.
    // The broker's threads are created by threads spawned from here, and
    // inherit this thread's CPU.
    let cpus = load::allowed_cpus();
    let broker_cpu = cpus.last().copied().filter(|&c| load::pin_to(c));
    // Set-up, several times; the last deployment carries the load.
    // Each set-up's time is scaled to the calibration speed, like the
    // brokers' CPU time below, by the reference passes around it.
    let mut setups = Vec::new();
    let mut measured_setups = Vec::new();
    let mut cluster = None;
    let mut before = calib::reference_on(broker_cpu);
    for i in 0..SETUPS {
        let dir = state.join(format!("setup{i}"));
        let started = Instant::now();
        let c = set_up(w.nodes, &sc, &dir)?;
        let secs = started.elapsed().as_secs_f64();
        let after = calib::reference_on(broker_cpu);
        measured_setups.push(secs);
        setups.push(secs * calib::scale(before, after));
        before = after;
        if i + 1 < SETUPS {
            c.stop();
            let _ = std::fs::remove_dir_all(&dir);
        } else {
            cluster = Some(c);
        }
    }
    let cluster = cluster.expect("at least one set-up");
    if let Some(&c) = cpus.first() {
        load::pin_to(c);
    }

    let epoch = Instant::now();
    let mut sender =
        Sender::connect(cluster.primary(), epoch).map_err(|e| format!("connect: {e}"))?;
    if !load::set_sender_priority(SENDER_NICE) {
        eprintln!("brokerbench: could not raise the sender's priority; its lateness may grow");
    }
    let mut g = Generator::new(&sc, args.seed);
    let mut phases = vec![run_phase(
        &mut sender,
        "warmup",
        g.phase(w.rate, WARMUP_SECS, w.write_share),
        Pace::Open,
    )?];
    phases.push(run_phase(
        &mut sender,
        "nominal",
        g.phase(w.rate, WINDOW_SHARE * args.seconds, w.write_share),
        Pace::Open,
    )?);
    // Saturated: the same mix, sent in order on one connection as fast
    // as the broker answers, in blocks with the reference computation
    // timed on the brokers' CPU between them.
    let mut before = calib::reference_on(broker_cpu);
    for _ in 0..SATURATED_BLOCKS {
        let mut p = run_phase(
            &mut sender,
            "saturated",
            g.phase(
                w.capacity_rate,
                SATURATED_SHARE * args.seconds / SATURATED_BLOCKS as f64,
                w.write_share,
            ),
            Pace::Closed(SATURATED_DEPTH),
        )?;
        let after = calib::reference_on(broker_cpu);
        p.reference_ns = Some((before, after));
        phases.push(p);
        before = after;
    }
    if let Some(rate) = w.write_probe_rate {
        phases.push(run_phase(
            &mut sender,
            "probe",
            g.phase(rate, PROBE_SHARE * args.seconds, 1.0),
            Pace::Open,
        )?);
    }
    if !sender.healthy() {
        eprintln!("brokerbench: a load connection broke; its requests count as failed");
    }
    drop(sender);
    load::set_sender_priority(0);

    // Correctness: every reply of every phase, then the final state.
    let records: Vec<Record> = phases
        .iter()
        .flat_map(|p| p.records.iter().cloned())
        .collect();
    let hists: Vec<Hist> = sc
        .clients
        .iter()
        .map(|c| parse_hist(&c.text).expect("generated clients parse"))
        .collect();
    let mut model = Model::new(
        parsed.repository.clone(),
        parsed.registry.clone(),
        hists,
        &sc.toggles,
        &g.writes,
    );
    let verdict = model.check(&records, false);
    let mut problems = Vec::new();
    note_mismatches(&verdict, &mut problems);
    let mut attempted = records.len();
    let mut failed = verdict.failed;
    let final_state = [g.writes[0].len(), g.writes[1].len()];
    final_checks(
        &cluster,
        &sc,
        &model,
        final_state,
        w,
        args.seed,
        &mut problems,
    )?;
    let replication = if args.trace && w.nodes == Nodes::Durable {
        let (r, sent, lost) = replication_probe(args, &sc, &parsed, state, &mut problems)?;
        attempted += sent;
        failed += lost;
        r
    } else {
        Replication::default()
    };
    for p in &problems {
        eprintln!("brokerbench: MISMATCH: {p}");
    }

    let pick = |names: &[&str], pick: fn(Kind) -> bool| -> Vec<(u64, f64)> {
        phases
            .iter()
            .filter(|p| names.contains(&p.name))
            .flat_map(|p| p.latencies(pick))
            .collect()
    };
    // What the clients saw: latencies (nominal window and write probe)
    // and capacity (saturated phase). Host CPU steal moves them by more
    // than any bound the benchmark may hold them to, so they are
    // per-layer metrics of the traced run, and printed here.
    let plans = pick(&["nominal"], is_plan);
    let writes = pick(&["nominal", "probe"], is_write);
    let tail = |v: &[(u64, f64)], p| windowed_percentile(v, p, SUB_WINDOWS).unwrap_or(0.0);
    // Each saturated block's completion rate; the capacity is their
    // median.
    let block_rates: Vec<f64> = phases
        .iter()
        .filter(|p| p.name == "saturated")
        .filter_map(|p| {
            let done: Vec<u64> = p.records.iter().filter_map(|r| r.recv_ns).collect();
            completion_rate(&done, 1)
        })
        .collect();
    let client: Metrics = vec![
        ("client.plan_p50_us", tail(&plans, 50.0), "us"),
        ("client.plan_p90_us", tail(&plans, TAIL), "us"),
        ("client.write_p50_us", tail(&writes, 50.0), "us"),
        (
            "client.capacity_rps",
            median(&block_rates).unwrap_or(0.0),
            "1/s",
        ),
    ];
    let cpu_per = |name: &str| {
        let (cpu, n) = phases
            .iter()
            .filter(|p| p.name == name)
            .fold((0, 0), |(cpu, n), p| {
                (cpu + p.broker_cpu_ns, n + p.records.len())
            });
        cpu as f64 / 1e3 / n.max(1) as f64
    };
    // The brokers' CPU per request in the saturated phase at the
    // calibration speed: each block's CPU time scaled by how much longer
    // than at that speed the reference took around it.
    let (scaled_ns, requests) = phases
        .iter()
        .filter_map(|p| Some((p, p.reference_ns?)))
        .fold((0.0, 0), |(cpu, n), (p, (a, b))| {
            (
                cpu + p.broker_cpu_ns as f64 * calib::scale(a, b),
                n + p.records.len(),
            )
        });
    let broker_cpu_us = scaled_ns / 1e3 / requests.max(1) as f64;
    let references: Vec<f64> = phases
        .iter()
        .filter_map(|p| p.reference_ns)
        .map(|(_, b)| b as f64)
        .collect();
    let all = |v: &[(u64, f64)]| v.iter().map(|s| s.1).collect::<Vec<f64>>();
    let block_cpu: Vec<f64> = phases
        .iter()
        .filter(|p| p.name == "saturated" && !p.records.is_empty())
        .map(|p| p.broker_cpu_ns as f64 / 1e3 / p.records.len() as f64)
        .collect();
    eprintln!(
        "brokerbench: set-up: {:.4} s as measured, {:.4} s at the calibration speed (medians of {})",
        median(&measured_setups).unwrap_or(0.0),
        median(&setups).unwrap_or(0.0),
        setups.len(),
    );
    eprintln!(
        "brokerbench: saturated: {} requests in {} blocks; broker CPU per request {:.1} us as measured (by block p25 {:.1} p50 {:.1} p75 {:.1} us), {:.1} us at the calibration speed; reference {:.3} ms at the median ({:.3} ms calibrated); capacity by block p25 {:.0} p50 {:.0} p75 {:.0} 1/s",
        phases
            .iter()
            .filter(|p| p.name == "saturated")
            .map(|p| p.records.len())
            .sum::<usize>(),
        block_cpu.len(),
        cpu_per("saturated"),
        percentile(&block_cpu, 25.0).unwrap_or(0.0),
        percentile(&block_cpu, 50.0).unwrap_or(0.0),
        percentile(&block_cpu, 75.0).unwrap_or(0.0),
        broker_cpu_us,
        median(&references).unwrap_or(0.0) / 1e6,
        calib::REFERENCE_NS / 1e6,
        percentile(&block_rates, 25.0).unwrap_or(0.0),
        percentile(&block_rates, 50.0).unwrap_or(0.0),
        percentile(&block_rates, 75.0).unwrap_or(0.0),
    );
    eprintln!(
        "brokerbench: {} samples: plan {} write {}; plan p90 {:.0} us, p99 {:.0} us; write p90 {:.0} us, p99 {:.0} us (over all samples); broker CPU per request in the nominal window {:.1} us",
        w.name,
        plans.len(),
        writes.len(),
        percentile(&all(&plans), TAIL).unwrap_or(0.0),
        percentile(&all(&plans), 99.0).unwrap_or(0.0),
        percentile(&all(&writes), TAIL).unwrap_or(0.0),
        percentile(&all(&writes), 99.0).unwrap_or(0.0),
        cpu_per("nominal"),
    );
    let by_window = |v: &[(u64, f64)], p| {
        window_percentiles(v, p, SUB_WINDOWS)
            .iter()
            .map(|x| format!("{x:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    eprintln!(
        "brokerbench: by window: plan p50 [{}] p90 [{}]; write p50 [{}] p90 [{}]",
        by_window(&plans, 50.0),
        by_window(&plans, TAIL),
        by_window(&writes, 50.0),
        by_window(&writes, TAIL),
    );
    let metrics = if args.trace {
        let ctx = TraceCtx {
            w,
            args,
            root,
            state,
            parsed: &parsed,
            sc: &sc,
            phases: &phases,
            cluster: &cluster,
            model: &model,
            final_state,
            replication: &replication,
            epoch,
        };
        let mut m = trace_metrics(&ctx)?;
        m.extend(client);
        m
    } else {
        for (name, value, unit) in &client {
            eprintln!("  {name:<34} {value:>14.3} {unit}");
        }
        vec![
            ("setup_s", median(&setups).unwrap_or(0.0), "s"),
            ("broker_cpu_us", broker_cpu_us, "us"),
        ]
    };
    cluster.stop();

    eprintln!(
        "brokerbench: {} seed {}: {attempted} requests, {failed} failed, {} mismatches",
        w.name,
        args.seed,
        problems.len()
    );
    for (name, value, unit) in &metrics {
        eprintln!("  {name:<34} {value:>14.3} {unit}");
    }
    Ok(Run {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
    })
}

/// Adds a check's mismatches to `problems`, with the count of those it
/// did not keep.
fn note_mismatches(verdict: &check::Verdict, problems: &mut Vec<String>) {
    problems.extend(verdict.mismatches.iter().cloned());
    if verdict.mismatch_count > verdict.mismatches.len() {
        problems.push(format!("... {} mismatches in all", verdict.mismatch_count));
    }
}

/// What the replication probe measured; zero without one.
#[derive(Default)]
struct Replication {
    bootstrap_ms: f64,
    max_lag_records: f64,
    records_shipped: f64,
    quorum_timeouts: f64,
}

/// The replication probe of a traced durable run. A fresh three-node
/// `ack: quorum` deployment of the same scenario takes writes alone,
/// open loop, while the followers' lag is sampled; then a fourth node
/// bootstraps from its primary's final state. Every reply is checked as
/// the main load's are, and every node's final repository against the
/// model. Returns the measurements, the requests sent and how many of
/// them failed.
fn replication_probe(
    args: &Args,
    sc: &Scenario,
    parsed: &Parsed,
    state: &Path,
    problems: &mut Vec<String>,
) -> Result<(Replication, usize, usize), String> {
    let cluster = set_up(Nodes::Quorum, sc, &state.join("quorum"))?;
    let primary = cluster.primary();
    let mut sender =
        Sender::connect(primary, Instant::now()).map_err(|e| format!("connect: {e}"))?;
    let mut g = Generator::new(sc, args.seed ^ 0x0DE9_11CA);
    let ops = g.phase(REPLICATION_RATE, PROBE_SHARE * args.seconds, 1.0);
    let stop = AtomicBool::new(false);
    let (phase, max_lag) = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut worst = 0.0f64;
            while !stop.load(Ordering::SeqCst) {
                if let Ok(st) = stats_of(primary) {
                    for f in field(&st, &["replication", "followers"])
                        .and_then(Json::as_arr)
                        .unwrap_or(&[])
                    {
                        worst = worst.max(num(f, &["lag"]));
                    }
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            worst
        });
        let phase = run_phase(&mut sender, "replication", ops, Pace::Open);
        stop.store(true, Ordering::SeqCst);
        (phase, sampler.join().expect("lag sampler does not panic"))
    });
    let phase = phase?;
    drop(sender);

    let hists = sc
        .clients
        .iter()
        .map(|c| parse_hist(&c.text).expect("generated clients parse"))
        .collect();
    let mut model = Model::new(
        parsed.repository.clone(),
        parsed.registry.clone(),
        hists,
        &sc.toggles,
        &g.writes,
    );
    let verdict = model.check(&phase.records, true);
    note_mismatches(&verdict, problems);
    wait_caught_up(&cluster)?;
    check_repos(
        &cluster,
        &model.repo_at([g.writes[0].len(), g.writes[1].len()]),
        problems,
    )?;
    let stats = stats_of(primary)?;

    let started = Instant::now();
    let extra = spawn_follower(primary, &state.join("quorum").join("bootstrap"))?;
    let want = applied_seq(primary)?;
    wait_for("bootstrap follower", || {
        Ok(applied_seq(extra.addr())? >= want)
    })?;
    let bootstrap_ms = started.elapsed().as_secs_f64() * 1e3;
    extra.join();
    cluster.stop();
    Ok((
        Replication {
            bootstrap_ms,
            max_lag_records: max_lag,
            records_shipped: num(&stats, &["stats", "replication", "records_shipped"]),
            quorum_timeouts: num(&stats, &["stats", "replication", "quorum_timeouts"]),
        },
        phase.records.len(),
        verdict.failed,
    ))
}

/// What the traced run's metrics are computed from.
struct TraceCtx<'a> {
    w: &'a Workload,
    args: &'a Args,
    root: &'a Path,
    state: &'a Path,
    parsed: &'a Parsed,
    sc: &'a Scenario,
    phases: &'a [Phase],
    cluster: &'a Cluster,
    model: &'a Model,
    final_state: [usize; CONNS],
    replication: &'a Replication,
    epoch: Instant,
}

/// The per-layer metrics of a traced run.
fn trace_metrics(ctx: &TraceCtx) -> Result<Metrics, String> {
    let (w, parsed) = (ctx.w, ctx.parsed);
    let mut t = Tracer::new(ctx.epoch);
    // Live spans of the nominal window: request (due → reply) with the
    // sender's own lateness (due → written) as its child. Plans are
    // split by whether a write was outstanding when they were sent.
    let (mut lateness, mut req_bytes, mut reply_bytes) = (Vec::new(), Vec::new(), Vec::new());
    let (mut clear, mut behind) = (Vec::new(), Vec::new());
    let mut req_id = 0u64;
    for p in ctx.phases.iter().filter(|p| p.name == "nominal") {
        let mut writes: Vec<(u64, u64)> = Vec::new();
        for (((op, r), &due), &bytes) in
            p.ops.iter().zip(&p.records).zip(&p.due).zip(&p.reply_bytes)
        {
            req_id += 1;
            let recv = r.recv_ns.unwrap_or(r.sent_ns);
            let span = t.record("client.request", due, recv, None, req_id);
            t.record("client.queue", due, r.sent_ns, Some(span), req_id);
            lateness.push(r.sent_ns.saturating_sub(due) as f64 / 1e3);
            req_bytes.push(op.frame.len() as f64);
            if bytes > 0 {
                reply_bytes.push(bytes as f64);
            }
            match op.kind {
                Kind::Write(_) => writes.push((r.sent_ns, recv)),
                Kind::Plan(_) if r.recv_ns.is_some() => {
                    let lat = recv.saturating_sub(due) as f64 / 1e3;
                    if writes.iter().any(|&(s, e)| s <= r.sent_ns && e > r.sent_ns) {
                        behind.push(lat);
                    } else {
                        clear.push(lat);
                    }
                }
                Kind::Plan(_) => {}
            }
        }
    }

    // Server-side replay, in send order, on two mirrors of the
    // deployment: each request runs untraced on one and traced on the
    // other, and the ratio of their summed times is the tracer's
    // overhead. Which mirror traces and which runs first rotate from
    // request to request, because the second run of a request finds
    // the processor's caches warm and one mirror's memory can be laid
    // out better than the other's. Writes of the warm-up apply untimed,
    // so both start from the state the nominal window saw.
    let durable = w.nodes != Nodes::Memory;
    let mut mirrors = Vec::new();
    for name in ["replay-a", "replay-b"] {
        mirrors.push(
            layers::Mirror::new(
                parsed.repository.clone(),
                parsed.registry.clone(),
                &parsed.clients,
                durable.then(|| ctx.state.join(name)).as_deref(),
            )
            .map_err(|e| format!("replay journal: {e}"))?,
        );
    }
    let mut off = Tracer::off(ctx.epoch);
    let (mut plain_secs, mut traced_secs) = (0.0, 0.0);
    let mut turn = 0usize;
    for p in ctx.phases {
        let timed = matches!(p.name, "nominal" | "probe");
        for op in p.ops.iter().filter(|op| timed || is_write(op.kind)) {
            req_id += 1;
            if !timed {
                for m in &mut mirrors {
                    m.replay(&mut off, req_id, op.kind, &op.frame);
                }
                continue;
            }
            let traced = turn % 2;
            let order = if turn / 2 % 2 == 0 { [0, 1] } else { [1, 0] };
            turn += 1;
            for i in order {
                let started = Instant::now();
                if i == traced {
                    mirrors[i].replay(&mut t, req_id, op.kind, &op.frame);
                    traced_secs += started.elapsed().as_secs_f64();
                } else {
                    mirrors[i].replay(&mut off, req_id, op.kind, &op.frame);
                    plain_secs += started.elapsed().as_secs_f64();
                }
            }
        }
    }
    let mirror = &mirrors[0];
    layers::core_layers(
        &mut t,
        &parsed.repository,
        &parsed.registry,
        &parsed.clients,
    );

    // Snapshot write on the final state, and recovery: a fresh node on
    // the deployment's state dir (or, in memory, on that snapshot) up
    // to its first plan reply.
    let final_repo = ctx.model.repo_at(ctx.final_state);
    let snap_dir = ctx.state.join("snapshot-copy");
    let snap_ms =
        layers::snapshot_write_ms(&snap_dir, &final_repo, &parsed.registry, &parsed.clients, 5)
            .map_err(|e| format!("snapshot write: {e}"))?;
    let stats = stats_of(ctx.cluster.primary())?;
    let recover_dir = if durable {
        ctx.state.join("recover")
    } else {
        snap_dir.clone()
    };
    if durable {
        copy_dir(&ctx.cluster.dirs[0], &recover_dir).map_err(|e| format!("copy state dir: {e}"))?;
    }
    let started = Instant::now();
    let node = Broker::spawn(BrokerConfig {
        state_dir: Some(recover_dir),
        ..BrokerConfig::default()
    })
    .map_err(|e| format!("recover: {e}"))?;
    let first = request(node.addr(), &gen::plan_request(&ctx.sc.clients[0].text));
    let recover_ms = started.elapsed().as_secs_f64() * 1e3;
    node.join();
    if first.map(|r| r.bool_field("ok")) != Ok(Some(true)) {
        return Err("recovered node failed its first plan".to_owned());
    }

    let self_us = t.self_times_us();
    let spans_path = ctx
        .root
        .join("brokerbench")
        .join("out")
        .join(format!("trace-{}-{}.jsonl", w.name, ctx.args.seed));
    t.write_jsonl(&spans_path)
        .map_err(|e| format!("write {}: {e}", spans_path.display()))?;
    eprintln!(
        "brokerbench: {} spans written to {}",
        t.spans().len(),
        spans_path.display()
    );
    for (name, v) in &self_us {
        eprintln!(
            "  self {name:<22} n={:<7} p50 {:>10.2} us  total {:>12.1} us",
            v.len(),
            median(v).unwrap_or(0.0),
            v.iter().sum::<f64>()
        );
    }
    let layer = |name: &str, p: f64| {
        self_us
            .get(name)
            .and_then(|v| percentile(v, p))
            .unwrap_or(0.0)
    };
    Ok(vec![
        ("proto.decode_us", layer("proto.decode", 50.0), "us"),
        ("proto.encode_us", layer("proto.encode", 50.0), "us"),
        (
            "proto.request_bytes",
            mean(&req_bytes).unwrap_or(0.0),
            "bytes",
        ),
        (
            "proto.reply_bytes",
            mean(&reply_bytes).unwrap_or(0.0),
            "bytes",
        ),
        ("hexpr.parse_hist_us", layer("hexpr.parse_hist", 50.0), "us"),
        (
            "product.read_valid_us",
            layer("product.read_valid", 50.0),
            "us",
        ),
        ("product.build_ms", layer("product.build", 50.0) / 1e3, "ms"),
        ("product.patch_us", layer("product.patch", 50.0), "us"),
        ("hexpr.project_us", layer("hexpr.project", 50.0), "us"),
        (
            "contract.compliance_us",
            layer("contract.compliance", 50.0),
            "us",
        ),
        ("policy.validity_us", layer("policy.validity", 50.0), "us"),
        (
            "product.builds",
            num(&stats, &["products", "builds"]),
            "count",
        ),
        (
            "product.patches",
            num(&stats, &["products", "patches"]),
            "count",
        ),
        (
            "product.reads",
            num(&stats, &["products", "reads"]),
            "count",
        ),
        (
            "product.evictions",
            num(&stats, &["products", "evictions"]),
            "count",
        ),
        (
            "cache.hit_ratio",
            num(&stats, &["stats", "cache_hit_rate"]),
            "ratio",
        ),
        ("cache.invalidate_us", layer("cache.invalidate", 50.0), "us"),
        (
            "server.plan_clear_p50_us",
            percentile(&clear, 50.0).unwrap_or(0.0),
            "us",
        ),
        (
            "server.plan_behind_write_p50_us",
            percentile(&behind, 50.0).unwrap_or(0.0),
            "us",
        ),
        ("wal.append_p50_us", layer("wal.append", 50.0), "us"),
        ("wal.append_p99_us", layer("wal.append", 99.0), "us"),
        (
            "wal.bytes_per_record",
            mirror.wal_bytes_per_record().unwrap_or(0.0),
            "bytes",
        ),
        ("snapshot.write_ms", median(&snap_ms).unwrap_or(0.0), "ms"),
        (
            "snapshot.count",
            num(&stats, &["stats", "durability", "snapshots"]),
            "count",
        ),
        ("snapshot.recover_ms", recover_ms, "ms"),
        (
            "replication.bootstrap_ms",
            ctx.replication.bootstrap_ms,
            "ms",
        ),
        (
            "replication.max_lag_records",
            ctx.replication.max_lag_records,
            "count",
        ),
        (
            "replication.records_shipped",
            ctx.replication.records_shipped,
            "count",
        ),
        (
            "replication.quorum_timeouts",
            ctx.replication.quorum_timeouts,
            "count",
        ),
        (
            "harness.send_lag_p99_us",
            percentile(&lateness, 99.0).unwrap_or(0.0),
            "us",
        ),
        (
            "harness.trace_overhead_ratio",
            traced_secs / plain_secs,
            "ratio",
        ),
    ])
}

/// Copies the files of `from` into `to` (one level: a state dir holds
/// only files).
fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// The result line of a run that passed every check and had no failed
/// request; otherwise why the run fails, and no metrics.
fn result_line(r: &Run) -> Result<String, String> {
    if !r.correct || r.failed > 0 {
        return Err(format!(
            "run failed: correct {}, {} of {} requests failed",
            r.correct, r.failed, r.attempted
        ));
    }
    let mut metrics = Json::obj();
    for (name, value, unit) in &r.metrics {
        metrics.set(name, Json::obj().with("value", *value).with("unit", *unit));
    }
    Ok(Json::obj()
        .with("correct", r.correct)
        .with("attempted", r.attempted as u64)
        .with("failed", r.failed as u64)
        .with("metrics", metrics)
        .to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("brokerbench: {e}");
            eprintln!(
                "usage: brokerbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let all = workloads();
    let Some(w) = all.iter().find(|w| w.name == args.workload) else {
        let names: Vec<&str> = all.iter().map(|w| w.name).collect();
        eprintln!(
            "brokerbench: unknown workload `{}` (want one of {})",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository");
    match run(&args, w, root).and_then(|r| result_line(&r)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("brokerbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{result_line, Run};

    fn run(correct: bool, failed: usize) -> Run {
        Run {
            correct,
            attempted: 10,
            failed,
            metrics: vec![("setup_s", 0.5, "s")],
        }
    }

    #[test]
    fn only_a_clean_run_prints_metrics() {
        let line = result_line(&run(true, 0)).expect("a clean run passes");
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}"#
        );
        // A mismatch or a failed request fails the run, with no metrics.
        assert!(result_line(&run(false, 0)).is_err());
        assert!(result_line(&run(true, 1)).is_err());
    }
}
