//! The four workloads: set-up, warm-up, the timed closed loop, verdict
//! checks, and the host/plan record.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ridfa_automata::ConstructionBudget;
use ridfa_core::csdpa::{
    CancelToken, Kernel, PatternRegistry, PatternSpec, RegistryConfig, RegistryError,
};
use ridfa_core::serve::protocol::{self, Response, Status};
use ridfa_core::serve::{ServeConfig, Server, ServerReport};

use crate::inputs::{self, Input, Pattern, Replay};
use crate::stats::{self, Recorder, Window};
use crate::trace::{Tracer, ROOT};

/// Fresh set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Windows the timed phase is cut into; the time metrics are medians
/// over windows.
pub const WINDOWS: usize = 20;
/// Inputs re-checked against the serial NFA oracle per run.
const ORACLE_SAMPLES: usize = 6;
/// Client-side socket timeout: a stuck server fails the run instead of
/// hanging it.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Bulk,
    Stream,
    Batch,
    Serve,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Bulk,
        Workload::Stream,
        Workload::Batch,
        Workload::Serve,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Bulk => "bulk",
            Workload::Stream => "stream",
            Workload::Batch => "batch",
            Workload::Serve => "serve",
        }
    }

    /// Inputs in the pool and bytes per input. 48 = 3 patterns × 16, so
    /// every pattern gets its share of rejected inputs.
    pub fn shape(self) -> (usize, usize) {
        match self {
            Workload::Bulk | Workload::Stream => (48, 1 << 20),
            Workload::Batch => (480, 4 << 10),
            Workload::Serve => (480, 2 << 10),
        }
    }

    /// Registry workers: one process with at most `nproc` busy threads.
    pub fn num_workers(self, nproc: usize) -> usize {
        match self {
            Workload::Serve => 1,
            _ => nproc.saturating_sub(1).max(1),
        }
    }

    /// Name of the span around one timed operation.
    fn op_span(self) -> &'static str {
        match self {
            Workload::Bulk | Workload::Batch => "op.recognize",
            Workload::Stream => "op.recognize_stream",
            Workload::Serve => "op.round_trip",
        }
    }
}

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Divides every input length (1 for real runs; the self-test
    /// shrinks inputs).
    pub shrink: usize,
}

/// A named value with its unit.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// Verdict and invariant bookkeeping. Every verdict is one attempted
/// item; so is each oracle re-check and each serve reconciliation.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    problems: Vec<String>,
}

impl Checks {
    pub fn item(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(what());
            }
        }
    }

    /// Checks a verdict against the input's label.
    pub fn verdict<E: std::fmt::Debug>(&mut self, got: &Result<bool, E>, input: &Input) {
        self.item(matches!(got, Ok(v) if *v == input.accept), || {
            format!("expected accept={} got {got:?}", input.accept)
        });
    }

    /// Checks a serve response against the input's label.
    pub fn response(&mut self, got: &io::Result<Response>, input: &Input) {
        let expected = if input.accept {
            Status::Accepted
        } else {
            Status::Rejected
        };
        self.item(
            matches!(got, Ok(r) if r.status == expected && r.scanned == input.bytes.len() as u64),
            || {
                format!(
                    "expected {expected:?} over {} bytes, got {got:?}",
                    input.bytes.len()
                )
            },
        );
    }

    pub fn problems(&self) -> &[String] {
        &self.problems
    }
}

/// Everything a run reports.
pub struct Report {
    pub checks: Checks,
    pub metrics: Vec<Metric>,
    /// Host, plan and sample-count lines printed before the metrics.
    pub notes: Vec<String>,
}

/// What the workload drivers hand back to [`run`].
struct Timed {
    setup_s: Vec<f64>,
    windows: Vec<Window>,
    /// `(pattern id, plan, effective kernel)` per pattern.
    plans: Vec<(&'static str, String, Option<Kernel>)>,
}

/// When a closed loop stops issuing operations.
#[derive(Clone, Copy)]
enum Until {
    /// After this many operations (warm-up).
    Count(usize),
    /// Once `seconds` have passed since the phase started.
    Deadline,
}

/// The phase clock (`t0`, its length, whether odd windows are traced)
/// and the windows its operations are recorded into.
struct Phase {
    t0: Instant,
    seconds: f64,
    until: Until,
    recorder: Recorder,
}

impl Phase {
    fn new(until: Until, seconds: f64) -> Phase {
        Phase {
            t0: Instant::now(),
            seconds,
            until,
            recorder: Recorder::new(seconds.max(1e-3), WINDOWS),
        }
    }

    fn record(&mut self, start: Instant, end: Instant, bytes: usize) {
        let end_s = self.elapsed(end);
        let latency_us = (end - start).as_secs_f64() * 1e6;
        self.recorder.record(end_s, latency_us, bytes as u64);
    }

    fn elapsed(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.t0).as_secs_f64()
    }

    fn done(&self, issued: usize, now: Instant) -> bool {
        match self.until {
            Until::Count(n) => issued >= n,
            Until::Deadline => self.elapsed(now) >= self.seconds,
        }
    }

    /// Odd windows of a traced run record spans; even ones do not, so the
    /// same run measures its own tracing overhead.
    fn traced(&self, at: Instant) -> bool {
        matches!(self.until, Until::Deadline)
            && (self.elapsed(at) / (self.seconds / WINDOWS as f64)) as usize % 2 == 1
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn registry_config(num_workers: usize) -> RegistryConfig {
    RegistryConfig {
        num_workers,
        ..RegistryConfig::default()
    }
}

/// Runs one workload end to end and returns its report.
pub fn run(opts: &Options) -> Report {
    let pats = inputs::patterns();
    let (count, len) = opts.workload.shape();
    let inputs = inputs::generate(&pats, opts.seed, count, (len / opts.shrink).max(64));
    let nproc = nproc();
    let mut checks = Checks::default();
    let mut tracer = opts.trace.then(Tracer::new);

    let cpu_before = cpu_ticks();
    let timed = match opts.workload {
        Workload::Serve => run_serve(opts, &pats, &inputs, nproc, &mut checks, tracer.as_mut()),
        _ => run_local(opts, &pats, &inputs, nproc, &mut checks, tracer.as_mut()),
    };
    let steal = steal_frac(cpu_before, cpu_ticks());

    for (i, agrees) in inputs::oracle_sample(&pats, &inputs, opts.seed, ORACLE_SAMPLES) {
        checks.item(agrees, || {
            format!("input {i}: label contradicts the NFA oracle")
        });
    }

    let mut notes = vec![
        host_record(nproc),
        format!(
            "host steal_frac={steal:.4} (CPU time taken by other guests during set-up and timing)"
        ),
    ];
    for (id, plan, kernel) in &timed.plans {
        notes.push(format!(
            "plan {id}: engine={plan} kernel={}",
            kernel.map_or("none", Kernel::name)
        ));
    }
    let windows = timed.windows;
    let mut p99: Vec<f64> = windows.iter().map(|w| w.p99_us).collect();
    notes.push(format!(
        "samples {} ops in {} windows of {:.3} s (min {} per window); p99 {:.1} us (informational)",
        windows.iter().map(|w| w.samples).sum::<usize>(),
        WINDOWS,
        opts.seconds / WINDOWS as f64,
        windows.iter().map(|w| w.samples).min().unwrap_or(0),
        stats::median(&mut p99),
    ));
    notes.push(format!(
        "windows mib_s [{}]",
        windows
            .iter()
            .map(|w| format!("{:.1}", w.mib_s))
            .collect::<Vec<_>>()
            .join(" ")
    ));

    let metrics = match tracer {
        Some(mut tracer) => {
            let (traced, untraced): (Vec<_>, Vec<_>) =
                windows.iter().enumerate().partition(|(i, _)| i % 2 == 1);
            let mut traced: Vec<f64> = traced.iter().map(|(_, w)| w.mib_s).collect();
            let mut untraced: Vec<f64> = untraced.iter().map(|(_, w)| w.mib_s).collect();
            let overhead = 1.0 - stats::median(&mut traced) / stats::median(&mut untraced);
            let ctx = crate::layers::Ctx {
                workload: opts.workload,
                pats: &pats,
                inputs: &inputs,
                num_workers: opts.workload.num_workers(nproc),
            };
            let mut metrics = crate::layers::probe(&ctx, &mut tracer, &mut checks);
            metrics.push(Metric::new("trace.overhead_frac", "frac", overhead));
            match write_trace(&tracer, opts, &notes) {
                Ok(path) => notes.push(format!(
                    "trace {} spans written to {path}",
                    tracer.spans().len()
                )),
                Err(e) => notes.push(format!("trace not written: {e}")),
            }
            metrics
        }
        None => {
            let mut mib_s: Vec<f64> = windows.iter().map(|w| w.mib_s).collect();
            let mut p50: Vec<f64> = windows.iter().map(|w| w.p50_us).collect();
            let mut p90: Vec<f64> = windows.iter().map(|w| w.p90_us).collect();
            let mut setup = timed.setup_s.clone();
            let ok_frac =
                (checks.attempted - checks.failed) as f64 / checks.attempted.max(1) as f64;
            vec![
                Metric::new("setup_s", "s", stats::median(&mut setup)),
                Metric::new("mib_s", "MiB/s", stats::median(&mut mib_s)),
                Metric::new("op_p50_us", "us", stats::median(&mut p50)),
                Metric::new("op_p90_us", "us", stats::median(&mut p90)),
                Metric::new("rss_peak_mib", "MiB", rss_peak_mib()),
                Metric::new("ok_frac", "frac", ok_frac),
            ]
        }
    };
    Report {
        checks,
        metrics,
        notes,
    }
}

/// `nproc`, the SIMD features the CPU reports, and the kill switch.
fn host_record(nproc: usize) -> String {
    #[cfg(target_arch = "x86_64")]
    let features = [
        ("avx2", std::arch::is_x86_feature_detected!("avx2")),
        ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
        ("avx512bw", std::arch::is_x86_feature_detected!("avx512bw")),
        (
            "avx512vbmi",
            std::arch::is_x86_feature_detected!("avx512vbmi"),
        ),
    ];
    #[cfg(not(target_arch = "x86_64"))]
    let features: [(&str, bool); 0] = [];
    let mut line = format!("host nproc={nproc}");
    for (name, on) in features {
        line += &format!(" {name}={}", if on { "yes" } else { "no" });
    }
    let kill = std::env::var("RIDFA_NO_SIMD").unwrap_or_else(|_| "unset".into());
    line += &format!(
        " RIDFA_NO_SIMD={kill} simd_active={}",
        if ridfa_automata::simd::enabled() {
            "yes"
        } else {
            "no"
        }
    );
    line
}

/// `(steal, total)` ticks of the machine's CPUs from `/proc/stat`.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Share of CPU time between two [`cpu_ticks`] readings that the
/// hypervisor gave to other guests.
fn steal_frac(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    after.0.saturating_sub(before.0) as f64 / total.max(1) as f64
}

/// VmHWM of this process in MiB.
fn rss_peak_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Writes the spans under `results/` next to this package's manifest.
fn write_trace(tracer: &Tracer, opts: &Options, notes: &[String]) -> io::Result<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!(
        "trace-{}-seed{}.jsonl",
        opts.workload.name(),
        opts.seed
    ));
    let mut out = io::BufWriter::new(std::fs::File::create(&path)?);
    let header = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"columns\":[\"id\",\"name\",\"start_ns\",\"end_ns\",\
         \"parent\",\"op\",\"pattern\",\"bytes\",\"count\"],\"notes\":[{}]}}",
        opts.workload.name(),
        opts.seed,
        notes
            .iter()
            .map(|n| format!("\"{}\"", n.replace('"', "'")))
            .collect::<Vec<_>>()
            .join(",")
    );
    tracer.write_jsonl(&mut out, &header)?;
    Ok(path.display().to_string())
}

// ---------------------------------------------------------------------
// bulk, stream, batch: in-process calls on one PatternRegistry
// ---------------------------------------------------------------------

/// One operation of an in-process workload: its verdict and the
/// effective kernel the program reports.
fn local_op(
    registry: &mut PatternRegistry,
    workload: Workload,
    pattern: &Pattern,
    input: &Input,
) -> Result<(bool, Option<Kernel>), RegistryError> {
    match workload {
        Workload::Stream => registry
            .recognize_stream(pattern.id, Replay::new(&input.bytes))
            .map(|o| (o.accepted, o.kernel)),
        _ => registry
            .recognize(pattern.id, &input.bytes, 0)
            .map(|o| (o.accepted, o.kernel)),
    }
}

fn run_local(
    opts: &Options,
    pats: &[Pattern],
    inputs: &[Input],
    nproc: usize,
    checks: &mut Checks,
    tracer: Option<&mut Tracer>,
) -> Timed {
    let config = registry_config(opts.workload.num_workers(nproc));
    let first = &inputs[0];
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut registry = None;
    for _ in 0..SETUPS {
        // Free the previous replica before timing the next set-up.
        drop(registry.take());
        let t0 = Instant::now();
        let mut reg = PatternRegistry::new(config.clone());
        for p in pats {
            reg.insert_regex(p.id, &p.regex)
                .unwrap_or_else(|e| panic!("pattern {} does not build: {e}", p.id));
        }
        let verdict = local_op(&mut reg, opts.workload, &pats[first.pattern], first).map(|v| v.0);
        setup_s.push(t0.elapsed().as_secs_f64());
        checks.verdict(&verdict, first);
        registry = Some(reg);
    }
    let mut reg = registry.expect("at least one set-up");

    let mut warm = Phase::new(Until::Count(inputs.len()), 0.0);
    local_loop(
        &mut reg,
        opts.workload,
        pats,
        inputs,
        &mut warm,
        None,
        checks,
    );
    let mut timed = Phase::new(Until::Deadline, opts.seconds);
    local_loop(
        &mut reg,
        opts.workload,
        pats,
        inputs,
        &mut timed,
        tracer,
        checks,
    );

    let plans = pats
        .iter()
        .enumerate()
        .map(|(pi, p)| {
            let input = inputs
                .iter()
                .find(|i| i.pattern == pi)
                .expect("every pattern has inputs");
            let result = local_op(&mut reg, opts.workload, p, input);
            checks.verdict(&result.as_ref().map(|v| v.0), input);
            let plan = reg
                .plan(p.id)
                .map_or("none".into(), |pl| pl.name().to_string());
            (p.id, plan, result.ok().and_then(|v| v.1))
        })
        .collect();
    Timed {
        setup_s,
        windows: timed.recorder.finish(),
        plans,
    }
}

fn local_loop(
    reg: &mut PatternRegistry,
    workload: Workload,
    pats: &[Pattern],
    inputs: &[Input],
    phase: &mut Phase,
    mut tracer: Option<&mut Tracer>,
    checks: &mut Checks,
) {
    let mut issued = 0usize;
    loop {
        let start = Instant::now();
        if phase.done(issued, start) {
            return;
        }
        // Input 0 served the set-up; the loop starts at input 1.
        let index = (issued + 1) % inputs.len();
        let input = &inputs[index];
        let span = match tracer.as_deref_mut() {
            Some(t) if phase.traced(start) => {
                Some(t.open(workload.op_span(), ROOT, index as u64, input.pattern as u8))
            }
            _ => None,
        };
        let verdict = local_op(reg, workload, &pats[input.pattern], input).map(|v| v.0);
        let end = Instant::now();
        if let (Some(t), Some(id)) = (tracer.as_deref_mut(), span) {
            t.close(id, input.bytes.len() as u64);
        }
        checks.verdict(&verdict, input);
        phase.record(start, end, input.bytes.len());
        issued += 1;
    }
}

// ---------------------------------------------------------------------
// serve: an in-process Server over loopback TCP
// ---------------------------------------------------------------------

/// A running server thread and the token that stops it.
pub struct ServerRun {
    pub addr: SocketAddr,
    cancel: CancelToken,
    thread: JoinHandle<io::Result<ServerReport>>,
}

impl ServerRun {
    /// Binds a server over the pattern file `spec` (default
    /// [`ServeConfig`]: one shard, inline lane) on a free loopback port.
    pub fn start(spec: &str, num_workers: usize) -> io::Result<ServerRun> {
        let spec = PatternSpec::parse(spec, &ConstructionBudget::UNLIMITED, None)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        let mut server = Server::bind_spec(
            "127.0.0.1:0",
            spec,
            registry_config(num_workers),
            ServeConfig::default(),
        )?;
        let cancel = CancelToken::new();
        server.set_cancel(cancel.clone());
        let addr = server.local_addr()?;
        let thread = std::thread::spawn(move || server.run());
        Ok(ServerRun {
            addr,
            cancel,
            thread,
        })
    }

    /// Stops the server, waits for its thread, and checks its report:
    /// `verify()` holds and its tallies equal the client's.
    pub fn stop(self, client: &ClientTally, checks: &mut Checks) {
        self.cancel.cancel();
        let report = match self.thread.join() {
            Ok(Ok(report)) => report,
            Ok(Err(e)) => return checks.item(false, || format!("server failed: {e}")),
            Err(_) => return checks.item(false, || "server thread panicked".into()),
        };
        let verified = report.verify();
        checks.item(verified.is_ok(), || {
            format!("ServerReport::verify: {verified:?}")
        });
        let t = &report.tally;
        checks.item(
            t.requests == client.sent
                && t.accepted == client.accepted
                && t.rejected == client.rejected,
            || format!("server tally {t:?} != client tally {client:?}"),
        );
    }
}

/// What the client saw: requests sent and verdicts received.
#[derive(Debug, Default)]
pub struct ClientTally {
    pub sent: u64,
    pub accepted: u64,
    pub rejected: u64,
}

impl ClientTally {
    pub fn saw(&mut self, response: &io::Result<Response>) {
        match response {
            Ok(r) if r.status == Status::Accepted => self.accepted += 1,
            Ok(r) if r.status == Status::Rejected => self.rejected += 1,
            _ => {}
        }
    }
}

pub fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    Ok(stream)
}

/// Pre-encoded request frames, one per input.
pub fn frames(pats: &[Pattern], inputs: &[Input]) -> Vec<Vec<u8>> {
    inputs
        .iter()
        .map(|i| protocol::encode_request(pats[i.pattern].id, &i.bytes).expect("ids fit a frame"))
        .collect()
}

/// One blocking round trip of a pre-encoded frame.
pub fn round_trip(conn: &mut TcpStream, frame: &[u8]) -> io::Result<Response> {
    conn.write_all(frame)?;
    protocol::read_response(conn)
}

fn run_serve(
    opts: &Options,
    pats: &[Pattern],
    inputs: &[Input],
    nproc: usize,
    checks: &mut Checks,
    tracer: Option<&mut Tracer>,
) -> Timed {
    let spec = inputs::spec_text(pats);
    let frames = frames(pats, inputs);
    let workers = opts.workload.num_workers(nproc);
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut live: Option<(ServerRun, TcpStream, ClientTally)> = None;
    for _ in 0..SETUPS {
        if let Some((server, conn, tally)) = live.take() {
            drop(conn);
            server.stop(&tally, checks);
        }
        let t0 = Instant::now();
        let server = ServerRun::start(&spec, workers).expect("server binds on loopback");
        let mut conn = connect(server.addr).expect("loopback connect");
        let response = round_trip(&mut conn, &frames[0]);
        setup_s.push(t0.elapsed().as_secs_f64());
        checks.response(&response, &inputs[0]);
        let mut tally = ClientTally {
            sent: 1,
            ..ClientTally::default()
        };
        tally.saw(&response);
        live = Some((server, conn, tally));
    }
    let (server, conn, mut tally) = live.expect("at least one set-up");
    let mut conns = [conn, connect(server.addr).expect("loopback connect")];

    let mut next = 1usize;
    let mut warm = Phase::new(Until::Count(inputs.len()), 0.0);
    serve_loop(
        &mut conns, &frames, inputs, &mut next, &mut warm, None, checks, &mut tally,
    );
    let mut timed = Phase::new(Until::Deadline, opts.seconds);
    serve_loop(
        &mut conns, &frames, inputs, &mut next, &mut timed, tracer, checks, &mut tally,
    );
    drop(conns);
    server.stop(&tally, checks);

    // The plan record: a replica built the way each shard builds its own.
    let replica = PatternSpec::parse(&spec, &ConstructionBudget::UNLIMITED, None)
        .expect("the spec parsed before")
        .build_registry(registry_config(workers))
        .expect("the spec's artifacts load");
    let mut replica = replica;
    let plans = pats
        .iter()
        .enumerate()
        .map(|(pi, p)| {
            let input = inputs
                .iter()
                .find(|i| i.pattern == pi)
                .expect("every pattern has inputs");
            let outcome = replica.recognize(p.id, &input.bytes, 0);
            checks.verdict(&outcome.as_ref().map(|o| o.accepted), input);
            let plan = replica
                .plan(p.id)
                .map_or("none".into(), |pl| pl.name().to_string());
            (p.id, plan, outcome.ok().and_then(|o| o.kernel))
        })
        .collect();
    Timed {
        setup_s,
        windows: timed.recorder.finish(),
        plans,
    }
}

/// One client thread driving two connections in a closed loop, one
/// outstanding request each.
#[allow(clippy::too_many_arguments)]
fn serve_loop(
    conns: &mut [TcpStream; 2],
    frames: &[Vec<u8>],
    inputs: &[Input],
    next: &mut usize,
    phase: &mut Phase,
    mut tracer: Option<&mut Tracer>,
    checks: &mut Checks,
    tally: &mut ClientTally,
) {
    let mut issued = 0usize;
    // Per connection: (input index, send time, span).
    let mut inflight: [Option<(usize, Instant, Option<u32>)>; 2] = [None, None];
    for c in 0..2 {
        let start = Instant::now();
        if phase.done(issued, start) {
            break;
        }
        let index = *next % inputs.len();
        match conns[c].write_all(&frames[index]) {
            Ok(()) => {
                inflight[c] = Some((index, start, None));
                tally.sent += 1;
                *next += 1;
                issued += 1;
            }
            Err(e) => checks.item(false, || format!("send failed: {e}")),
        }
    }
    while inflight.iter().any(Option::is_some) {
        for c in 0..2 {
            let Some((index, start, span)) = inflight[c].take() else {
                continue;
            };
            let response = protocol::read_response(&mut conns[c]);
            let end = Instant::now();
            let input = &inputs[index];
            if let (Some(t), Some(id)) = (tracer.as_deref_mut(), span) {
                t.close(id, input.bytes.len() as u64);
            }
            checks.response(&response, input);
            tally.saw(&response);
            phase.record(start, end, input.bytes.len());
            if response.is_err() {
                // The connection is out of frame sync: stop using it.
                continue;
            }
            let start = Instant::now();
            if phase.done(issued, start) {
                continue;
            }
            let index = *next % inputs.len();
            let span = match tracer.as_deref_mut() {
                Some(t) if phase.traced(start) => Some(t.open(
                    "op.round_trip",
                    ROOT,
                    index as u64,
                    inputs[index].pattern as u8,
                )),
                _ => None,
            };
            match conns[c].write_all(&frames[index]) {
                Ok(()) => {
                    inflight[c] = Some((index, start, span));
                    tally.sent += 1;
                    *next += 1;
                    issued += 1;
                }
                Err(e) => checks.item(false, || format!("send failed: {e}")),
            }
        }
    }
}
