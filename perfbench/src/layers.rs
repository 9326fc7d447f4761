//! The traced run's layer probes: the benchmark's own calls into each
//! layer's public functions, on the workload's inputs, wrapped in spans.
//! The per-layer metrics are derived from those spans afterwards.

use std::collections::HashMap;
use std::hint::black_box;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::ops::Range;
use std::time::Instant;

use ridfa_automata::alphabet::ByteClasses;
use ridfa_automata::{ConstructionBudget, NoCount, TransitionCount};
use ridfa_core::csdpa::{
    chunk_spans, ChunkAutomaton, ConvergentRidCa, EnginePlan, FeasibleRidCa, FeasibleTable,
    JoinScratchOf, PatternRegistry, Session, StreamScan,
};
use ridfa_core::ridfa::RiDfa;
use ridfa_core::serve::protocol::{self, Status};
use ridfa_core::sfa::{Sfa, SfaCa};

use crate::inputs::{self, Input, Pattern, Replay};
use crate::run::{self, Checks, ClientTally, Metric, ServerRun, Workload};
use crate::stats;
use crate::trace::{Tracer, ANY, ROOT};

/// Fresh registries whose `insert_regex` calls are timed.
const INSERT_REPS: usize = 3;
/// `invoke_all` dispatches timed per probed input.
const DISPATCHES_PER_OP: usize = 4;

pub struct Ctx<'a> {
    pub workload: Workload,
    pub pats: &'a [Pattern],
    pub inputs: &'a [Input],
    pub num_workers: usize,
}

/// The engine tables a pattern's plan scans with, rebuilt from its NFA
/// so the benchmark can call the chunk automaton directly.
enum Engine {
    Lockstep,
    Feasible(FeasibleTable),
    Sfa(Sfa),
}

/// Sockets of the probe: a bench-side echo peer and a real server.
struct Links {
    echo: TcpStream,
    serve: TcpStream,
    serve_tally: ClientTally,
}

/// Everything one probed input touches.
struct Env<'a> {
    ctx: &'a Ctx<'a>,
    registry: PatternRegistry,
    session: Session,
    links: Links,
    tracer: &'a mut Tracer,
    checks: &'a mut Checks,
}

pub fn probe(ctx: &Ctx, tracer: &mut Tracer, checks: &mut Checks) -> Vec<Metric> {
    let registry = timed_inserts(ctx, tracer);
    let session = Session::with_shared_pool(registry.shared_pool());

    let (echo, echo_thread) = spawn_echo().expect("echo peer binds on loopback");
    let server = ServerRun::start(&inputs::spec_text(ctx.pats), ctx.num_workers)
        .expect("server binds on loopback");
    let links = Links {
        echo,
        serve: run::connect(server.addr).expect("loopback connect"),
        serve_tally: ClientTally::default(),
    };
    let mut env = Env {
        ctx,
        registry,
        session,
        links,
        tracer,
        checks,
    };

    let mut start_states = Vec::new();
    for (pi, p) in ctx.pats.iter().enumerate() {
        let rid = RiDfa::from_nfa(&p.nfa).minimized();
        start_states.push(rid.interface().len());
        let engine = match env.registry.plan(p.id) {
            Some(EnginePlan::Sfa) => Engine::Sfa(
                Sfa::build_rid_budgeted(&rid, &ConstructionBudget::UNLIMITED)
                    .expect("the registry built this SFA"),
            ),
            Some(EnginePlan::FeasibleStart) => Engine::Feasible(FeasibleTable::build(&rid)),
            _ => Engine::Lockstep,
        };
        match &engine {
            Engine::Sfa(sfa) => probe_pattern(&SfaCa::new(sfa), rid.classes(), pi, &mut env),
            Engine::Feasible(f) => {
                probe_pattern(&FeasibleRidCa::new(&rid, f), rid.classes(), pi, &mut env)
            }
            Engine::Lockstep => {
                probe_pattern(&ConvergentRidCa::new(&rid), rid.classes(), pi, &mut env)
            }
        }
    }

    let Env {
        links,
        tracer,
        checks,
        ..
    } = env;
    drop(links.echo);
    match echo_thread.join() {
        Ok(Ok(())) => {}
        Ok(Err(e)) => checks.item(false, || format!("echo peer failed: {e}")),
        Err(_) => checks.item(false, || "echo peer panicked".into()),
    }
    drop(links.serve);
    server.stop(&links.serve_tally, checks);

    derive(ctx, tracer, &start_states)
}

/// Times `insert_regex` on [`INSERT_REPS`] fresh registries; returns the
/// last one.
fn timed_inserts(ctx: &Ctx, tracer: &mut Tracer) -> PatternRegistry {
    let mut last = None;
    for rep in 0..INSERT_REPS {
        drop(last.take());
        let mut registry = PatternRegistry::new(run::registry_config(ctx.num_workers));
        for (pi, p) in ctx.pats.iter().enumerate() {
            let s = tracer.open("registry.insert_regex", ROOT, rep as u64, pi as u8);
            registry
                .insert_regex(p.id, &p.regex)
                .unwrap_or_else(|e| panic!("pattern {} does not build: {e}", p.id));
            tracer.close(s, 0);
        }
        last = Some(registry);
    }
    last.expect("at least one registry")
}

/// How the workload's entry point cuts one input: the reach chunks of
/// `recognize`, the 64 KiB blocks of a stream, or one serve body.
fn kernel_chunks(
    workload: Workload,
    len: usize,
    claimants: usize,
    block: usize,
) -> Vec<Range<usize>> {
    match workload {
        Workload::Bulk | Workload::Batch => chunk_spans(len, claimants),
        Workload::Stream => blocks(len, block),
        Workload::Serve => std::iter::once(0..len).collect(),
    }
}

fn blocks(len: usize, block: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return std::iter::once(0..0).collect();
    }
    (0..len)
        .step_by(block)
        .map(|s| s..(s + block).min(len))
        .collect()
}

/// Working buffers of one chunk automaton.
struct Bufs<CA: ChunkAutomaton> {
    scratch: CA::Scratch,
    maps: Vec<CA::Mapping>,
    spare: CA::Mapping,
    join: JoinScratchOf<CA>,
    compose: CA::ComposeScratch,
    acc: CA::Mapping,
    tmp: CA::Mapping,
    classes: Vec<u8>,
}

impl<CA: ChunkAutomaton> Bufs<CA> {
    fn new() -> Bufs<CA> {
        Bufs {
            scratch: CA::Scratch::default(),
            maps: Vec::new(),
            spare: CA::Mapping::default(),
            join: JoinScratchOf::<CA>::default(),
            compose: CA::ComposeScratch::default(),
            acc: CA::Mapping::default(),
            tmp: CA::Mapping::default(),
            classes: Vec::new(),
        }
    }
}

fn probe_pattern<CA: ChunkAutomaton>(ca: &CA, classes: &ByteClasses, pi: usize, env: &mut Env) {
    let mut bufs = Bufs::<CA>::new();
    let mut scan = StreamScan::new();
    for (index, input) in env.ctx.inputs.iter().enumerate() {
        if input.pattern != pi {
            continue;
        }
        let op = index as u64;
        let root = env.tracer.open("probe.op", ROOT, op, pi as u8);
        probe_kernel(ca, classes, &mut bufs, input, op, root, env);
        probe_session(ca, &mut bufs, input, op, root, env);
        probe_stream(ca, &mut bufs, input, op, root, env);
        probe_scan_block(&mut scan, input, op, root, env);
        probe_pool(op, root, env);
        probe_sockets(input, op, root, env);
        env.tracer.close(root, input.bytes.len() as u64);
    }
}

/// Classification, first-chunk and speculative scans, and the join, on
/// the chunks the workload's entry point would cut.
fn probe_kernel<CA: ChunkAutomaton>(
    ca: &CA,
    classes: &ByteClasses,
    bufs: &mut Bufs<CA>,
    input: &Input,
    op: u64,
    root: u32,
    env: &mut Env,
) {
    let p = input.pattern as u8;
    let text = &input.bytes;
    let claimants = env.registry.pool().num_workers() + 1;
    let chunks = kernel_chunks(env.ctx.workload, text.len(), claimants, block_size());
    bufs.maps.resize_with(chunks.len(), CA::Mapping::default);
    let t = &mut *env.tracer;
    for (j, range) in chunks.iter().enumerate() {
        let chunk = &text[range.clone()];
        bufs.classes.resize(chunk.len(), 0);
        let s = t.open("alphabet.classify_into", root, op, p);
        classes.classify_into(chunk, &mut bufs.classes);
        black_box(&bufs.classes);
        t.close(s, chunk.len() as u64);
        if j == 0 {
            let s = t.open("kernel.scan_first_into", root, op, p);
            ca.scan_first_into(chunk, &mut NoCount, &mut bufs.maps[0]);
            t.close(s, chunk.len() as u64);
        } else {
            speculative_scan(
                ca,
                &mut bufs.scratch,
                &mut bufs.maps[j],
                &mut bufs.spare,
                chunk,
                t,
                root,
                op,
                p,
            );
        }
    }
    if chunks.len() == 1 {
        // A one-chunk op never scans speculatively; scan its bytes as an
        // interior chunk so the speculative-scan rows exist everywhere.
        speculative_scan(
            ca,
            &mut bufs.scratch,
            &mut bufs.spare,
            &mut bufs.tmp,
            text,
            t,
            root,
            op,
            p,
        );
    }
    let s = t.open("csdpa.join_with", root, op, p);
    let accepted = ca.join_with(&bufs.maps[..chunks.len()], &mut bufs.join);
    t.close(s, text.len() as u64);
    env.checks.verdict(&Ok::<_, ()>(accepted), input);
}

/// One timed `scan_into`, then an untimed counted re-scan whose
/// transition count is attached to the span.
#[allow(clippy::too_many_arguments)]
fn speculative_scan<CA: ChunkAutomaton>(
    ca: &CA,
    scratch: &mut CA::Scratch,
    out: &mut CA::Mapping,
    spare: &mut CA::Mapping,
    chunk: &[u8],
    t: &mut Tracer,
    parent: u32,
    op: u64,
    p: u8,
) {
    let s = t.open("kernel.scan_into", parent, op, p);
    ca.scan_into(chunk, scratch, &mut NoCount, out);
    t.close(s, chunk.len() as u64);
    let mut counter = TransitionCount::default();
    ca.scan_into(chunk, scratch, &mut counter, spare);
    t.set_count(s, counter.get());
}

/// `PatternRegistry::recognize` against `Session::recognize` on the same
/// automaton and text, plus the registry's own reach time against the
/// slowest of its chunks re-timed alone.
fn probe_session<CA: ChunkAutomaton>(
    ca: &CA,
    bufs: &mut Bufs<CA>,
    input: &Input,
    op: u64,
    root: u32,
    env: &mut Env,
) {
    let p = input.pattern as u8;
    let id = env.ctx.pats[input.pattern].id;
    let text = &input.bytes;
    // Alternate which call runs first, so neither always finds the
    // other's warm caches.
    for turn in 0..2 {
        if (turn + op).is_multiple_of(2) {
            let start = Instant::now();
            let s = env.tracer.open("registry.recognize", root, op, p);
            let outcome = env.registry.recognize(id, text, 0);
            env.tracer.close(s, text.len() as u64);
            env.checks
                .verdict(&outcome.as_ref().map(|o| o.accepted), input);
            let Ok(outcome) = outcome else { continue };
            env.tracer.record(
                "session.reach",
                s,
                op,
                p,
                start,
                outcome.reach,
                text.len() as u64,
            );
            for (j, range) in chunk_spans(text.len(), outcome.num_chunks)
                .into_iter()
                .enumerate()
            {
                let chunk = &text[range];
                let c = env.tracer.open("session.chunk_scan", s, op, p);
                if j == 0 {
                    ca.scan_first_into(chunk, &mut NoCount, &mut bufs.tmp);
                } else {
                    ca.scan_into(chunk, &mut bufs.scratch, &mut NoCount, &mut bufs.tmp);
                }
                env.tracer.close(c, chunk.len() as u64);
            }
        } else {
            let chunks = env.registry.pool().num_workers() + 1;
            let s = env.tracer.open("session.recognize", root, op, p);
            let outcome = env.session.recognize(ca, text, chunks);
            env.tracer.close(s, text.len() as u64);
            env.checks.verdict(&Ok::<_, ()>(outcome.accepted), input);
        }
    }
}

/// `recognize_stream` wall time against its block scans and
/// compositions re-timed serially.
fn probe_stream<CA: ChunkAutomaton>(
    ca: &CA,
    bufs: &mut Bufs<CA>,
    input: &Input,
    op: u64,
    root: u32,
    env: &mut Env,
) {
    let p = input.pattern as u8;
    let text = &input.bytes;
    let s = env.tracer.open("registry.recognize_stream", root, op, p);
    let outcome = env
        .registry
        .recognize_stream(env.ctx.pats[input.pattern].id, Replay::new(text));
    env.tracer.close(s, text.len() as u64);
    env.checks
        .verdict(&outcome.as_ref().map(|o| o.accepted), input);

    let t = &mut *env.tracer;
    let mut dead = false;
    for (j, range) in blocks(text.len(), block_size()).into_iter().enumerate() {
        let block = &text[range];
        let b = t.open("stream.block_scan", s, op, p);
        if j == 0 {
            ca.scan_first_into(block, &mut NoCount, &mut bufs.acc);
            t.close(b, block.len() as u64);
            continue;
        }
        ca.scan_into(block, &mut bufs.scratch, &mut NoCount, &mut bufs.spare);
        t.close(b, block.len() as u64);
        let c = t.open("stream.compose", s, op, p);
        ca.compose_into(&bufs.acc, &bufs.spare, &mut bufs.compose, &mut bufs.tmp);
        std::mem::swap(&mut bufs.acc, &mut bufs.tmp);
        dead = ca.mapping_is_dead(&bufs.acc);
        t.close(c, 0);
        if dead {
            // The session stops reading at a dead prefix; so does this.
            break;
        }
    }
    let accepted = !dead && ca.accepts_mapping(&bufs.acc);
    env.checks.verdict(&Ok::<_, ()>(accepted), input);
}

/// The serve layer's scan: `scan_block` + `finish_scan` over one body.
fn probe_scan_block(scan: &mut StreamScan, input: &Input, op: u64, root: u32, env: &mut Env) {
    let id = env.ctx.pats[input.pattern].id;
    let s = env
        .tracer
        .open("registry.scan_block", root, op, input.pattern as u8);
    let verdict = env
        .registry
        .scan_block(id, scan, &input.bytes)
        .and_then(|_| env.registry.finish_scan(id, scan));
    env.tracer.close(s, input.bytes.len() as u64);
    if verdict.is_err() {
        scan.reset();
    }
    env.checks.verdict(&verdict, input);
}

/// `invoke_all` with one empty task per claimant: the pool's fixed cost.
fn probe_pool(op: u64, root: u32, env: &mut Env) {
    let pool = env.registry.pool();
    let tasks = pool.num_workers() + 1;
    for _ in 0..DISPATCHES_PER_OP {
        let s = env.tracer.open("pool.invoke_all", root, op, ANY);
        pool.invoke_all(tasks, |_| {});
        env.tracer.close(s, 0);
    }
}

/// The same request frame against the echo peer (the loopback floor)
/// and against the server.
fn probe_sockets(input: &Input, op: u64, root: u32, env: &mut Env) {
    let p = input.pattern as u8;
    let frame = protocol::encode_request(env.ctx.pats[input.pattern].id, &input.bytes)
        .expect("ids fit a frame");
    let len = input.bytes.len() as u64;

    let s = env.tracer.open("tcp.echo", root, op, p);
    let echoed = run::round_trip(&mut env.links.echo, &frame);
    env.tracer.close(s, len);
    env.checks
        .item(matches!(&echoed, Ok(r) if r.scanned == len), || {
            format!("echo peer answered {echoed:?}")
        });

    let s = env.tracer.open("serve.round_trip", root, op, p);
    let response = run::round_trip(&mut env.links.serve, &frame);
    env.tracer.close(s, len);
    env.links.serve_tally.sent += 1;
    env.links.serve_tally.saw(&response);
    env.checks.response(&response, input);
}

fn block_size() -> usize {
    run::registry_config(1).block_size
}

/// A bench-side peer that reads request frames and answers each with a
/// response frame, scanning nothing.
fn spawn_echo() -> io::Result<(TcpStream, std::thread::JoinHandle<io::Result<()>>)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let thread = std::thread::spawn(move || -> io::Result<()> {
        let (mut peer, _) = listener.accept()?;
        peer.set_nodelay(true)?;
        let mut head = [0u8; 2];
        loop {
            match peer.read_exact(&mut head) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
                Err(e) => return Err(e),
            }
            let mut id = vec![0u8; head[1] as usize];
            peer.read_exact(&mut id)?;
            let mut len = [0u8; 8];
            peer.read_exact(&mut len)?;
            let len = u64::from_le_bytes(len);
            let body = io::copy(&mut (&mut peer).take(len), &mut io::sink())?;
            peer.write_all(&protocol::encode_response(Status::Accepted, body))?;
        }
    });
    Ok((run::connect(addr)?, thread))
}

// ---------------------------------------------------------------------
// per-layer metrics from the spans
// ---------------------------------------------------------------------

fn p50(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    stats::percentile(&values, 0.5)
}

fn durations(tracer: &Tracer, name: &str) -> Vec<f64> {
    tracer.named(name, None).map(|s| s.dur_us()).collect()
}

/// MiB/s over every span of `name` and pattern `p`.
fn throughput(tracer: &Tracer, name: &str, p: u8) -> f64 {
    let (bytes, us) = tracer
        .named(name, Some(p))
        .fold((0u64, 0.0), |(b, t), s| (b + s.bytes, t + s.dur_us()));
    bytes as f64 / (1 << 20) as f64 / (us / 1e6)
}

fn derive(ctx: &Ctx, tracer: &Tracer, start_states: &[usize]) -> Vec<Metric> {
    let mut out = Vec::new();
    for (pi, p) in ctx.pats.iter().enumerate() {
        let pu = pi as u8;
        out.push(Metric::new(
            format!("alphabet.classify_mib_s.{}", p.id),
            "MiB/s",
            throughput(tracer, "alphabet.classify_into", pu),
        ));
        out.push(Metric::new(
            format!("kernel.first_scan_mib_s.{}", p.id),
            "MiB/s",
            throughput(tracer, "kernel.scan_first_into", pu),
        ));
        out.push(Metric::new(
            format!("kernel.spec_scan_mib_s.{}", p.id),
            "MiB/s",
            throughput(tracer, "kernel.scan_into", pu),
        ));
        let (transitions, bytes) = tracer
            .named("kernel.scan_into", Some(pu))
            .fold((0u64, 0u64), |(t, b), s| (t + s.count, b + s.bytes));
        out.push(Metric::new(
            format!("kernel.extra_transitions_per_byte.{}", p.id),
            "transitions/B",
            (transitions as f64 - bytes as f64) / bytes as f64,
        ));
        out.push(Metric::new(
            format!("ridfa.start_states.{}", p.id),
            "count",
            start_states[pi] as f64,
        ));
        let mut inserts: Vec<f64> = tracer
            .named("registry.insert_regex", Some(pu))
            .map(|s| s.dur_us() / 1e3)
            .collect();
        out.push(Metric::new(
            format!("setup.insert_ms.{}", p.id),
            "ms",
            stats::median(&mut inserts),
        ));
    }
    out.push(Metric::new(
        "join.us_p50",
        "us",
        p50(durations(tracer, "csdpa.join_with")),
    ));

    // session.wait: the registry's reach time minus the slowest of the
    // same chunks scanned alone.
    let spans = tracer.spans();
    let mut slowest: HashMap<u32, f64> = HashMap::new();
    for s in tracer.named("session.chunk_scan", None) {
        let e = slowest.entry(s.parent).or_insert(0.0);
        *e = e.max(s.dur_us());
    }
    let waits = tracer
        .named("session.reach", None)
        .map(|s| s.dur_us() - slowest.get(&s.parent).copied().unwrap_or(0.0))
        .collect();
    out.push(Metric::new("session.wait_us_p50", "us", p50(waits)));
    out.push(Metric::new(
        "pool.dispatch_us_p50",
        "us",
        p50(durations(tracer, "pool.invoke_all")),
    ));

    // registry.overhead: registry.recognize minus session.recognize, per op.
    let mut session_us: HashMap<u64, f64> = HashMap::new();
    for s in tracer.named("session.recognize", None) {
        session_us.insert(s.op, s.dur_us());
    }
    let overheads = tracer
        .named("registry.recognize", None)
        .filter_map(|s| session_us.get(&s.op).map(|us| s.dur_us() - us))
        .collect();
    out.push(Metric::new(
        "registry.overhead_us_p50",
        "us",
        p50(overheads),
    ));

    // stream.overhead: the share of the stream's thread-time not spent
    // in block scans and compositions.
    let claimants = (ctx.num_workers + 1) as f64;
    let wall: f64 = durations(tracer, "registry.recognize_stream").iter().sum();
    let busy: f64 = spans
        .iter()
        .filter(|s| s.name == "stream.block_scan" || s.name == "stream.compose")
        .map(|s| s.dur_us())
        .sum();
    out.push(Metric::new(
        "stream.overhead_frac",
        "frac",
        1.0 - busy / (claimants * wall),
    ));

    let scan_block = p50(durations(tracer, "registry.scan_block"));
    let echo = p50(durations(tracer, "tcp.echo"));
    let round_trip = p50(durations(tracer, "serve.round_trip"));
    out.push(Metric::new("registry.scan_block_us_p50", "us", scan_block));
    out.push(Metric::new("tcp.echo_us_p50", "us", echo));
    out.push(Metric::new(
        "serve.wait_us_p50",
        "us",
        round_trip - echo - scan_block,
    ));
    out
}
