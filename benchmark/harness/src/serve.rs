//! The `serve_*` workloads: a real `pypmc serve` process, driven over
//! its length-prefixed frame protocol by a client the benchmark owns.

use crate::cold::{compile, Engine};
use crate::expect::Output;
use crate::inputs::{digest_of, hit_cycle, miss_cycle, serve_keys, ServeKey};
use crate::json;
use crate::outcome::{AsTimed, Counters, LayerMetrics, Outcome, Row, Segment};
use crate::probes;
use crate::stats::{geomean, median, percentile, sorted};
use crate::trace::{merge, Span, Tracer};
use crate::util::{proc_cpu_seconds, proc_status_mb};
use crate::yardstick::{to_reference, Sensitivity, Yardstick};
use pypm::engine::Session;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

pub const STATUS_OK: u8 = 0;
const STATUS_OVERLOADED: u8 = 3;
/// A reply longer than this is refused before it is buffered; the
/// server's own frame limit.
const MAX_REPLY: usize = 16 * 1024 * 1024;
const IO_TIMEOUT: Duration = Duration::from_secs(60);
/// After the counted phase the connections run in segments of this
/// length, all pausing between two for one yardstick reading: a request
/// stands at the speed of the box during its segment.
const SEGMENT: Duration = Duration::from_millis(500);
/// In a traced run the first segment after the counted phase is the
/// counted phase over again, untraced: as many requests per connection,
/// from idle, and nothing else. Tracing overhead compares the two. (A
/// timed segment will not do: the first tenth of a second after a pause
/// runs faster than what follows, and a connection that has made its
/// counted requests leaves the others a lighter server.)
const MIRROR: u16 = 1;

/// The frame protocol's client side: request = `u32` LE length + UTF-8
/// text; reply = status byte + `u32` LE length + payload.
#[derive(Debug)]
pub struct FrameClient {
    stream: TcpStream,
    out: Vec<u8>,
    reply: Vec<u8>,
}

impl FrameClient {
    /// # Errors
    ///
    /// The connection could not be made or configured.
    pub fn connect(addr: &str) -> io::Result<FrameClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(FrameClient {
            stream,
            out: Vec::new(),
            reply: Vec::new(),
        })
    }

    /// One round trip. The payload borrows the client's buffer.
    ///
    /// # Errors
    ///
    /// A transport failure, an oversized reply or one that is not UTF-8;
    /// the connection is unusable afterwards.
    pub fn request(&mut self, line: &str) -> io::Result<(u8, &str)> {
        self.out.clear();
        self.out
            .extend_from_slice(&(line.len() as u32).to_le_bytes());
        self.out.extend_from_slice(line.as_bytes());
        self.stream.write_all(&self.out)?;
        let mut header = [0u8; 5];
        self.stream.read_exact(&mut header)?;
        let len = u32::from_le_bytes([header[1], header[2], header[3], header[4]]) as usize;
        if len > MAX_REPLY {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("reply of {len} bytes exceeds the {MAX_REPLY} byte limit"),
            ));
        }
        self.reply.resize(len, 0);
        self.stream.read_exact(&mut self.reply)?;
        let payload = std::str::from_utf8(&self.reply)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        Ok((header[0], payload))
    }
}

/// A spawned `pypmc serve`. Dropping it kills the process and waits for
/// it, so no path out of a run leaves a server behind.
#[derive(Debug)]
pub struct ServerProc {
    child: Child,
    pub addr: String,
    /// Held open so the server's exit message has somewhere to go.
    _stdout: BufReader<ChildStdout>,
}

impl ServerProc {
    /// `pypmc serve --jobs 1 --workers 1 --queue 16 --cache <cache>` on
    /// a free loopback port.
    ///
    /// # Errors
    ///
    /// The binary is missing or did not announce its address.
    pub fn spawn(pypmc: &Path, cache: usize) -> Result<ServerProc, String> {
        let mut child = Command::new(pypmc)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--jobs",
                "1",
                "--workers",
                "1",
            ])
            .args(["--queue", "16", "--cache", &cache.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", pypmc.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let announced = stdout.read_line(&mut line);
        let addr = line.trim().strip_prefix("listening on ").map(str::to_owned);
        match (announced, addr) {
            (Ok(_), Some(addr)) => Ok(ServerProc {
                child,
                addr,
                _stdout: stdout,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("pypmc serve did not announce an address: {line:?}"))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the server to drain and waits for it to exit.
    ///
    /// # Errors
    ///
    /// The server did not exit cleanly within ten seconds (it is killed).
    pub fn stop(mut self) -> Result<(), String> {
        let asked = FrameClient::connect(&self.addr).and_then(|mut c| {
            c.request("shutdown")?;
            Ok(())
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("pypmc serve exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(format!("cannot wait for pypmc serve: {e}")),
            }
        }
        Err(format!(
            "pypmc serve did not drain (shutdown request: {asked:?})"
        ))
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// `rewrites_fired` of the `totals` object of a `pypm.pipeline.v1`
/// report, without parsing the document: this runs once per reply.
pub fn totals_rewrites(report: &str) -> Option<u64> {
    let totals = &report[report.find("\"totals\"")?..];
    let value = &totals[totals.find("\"rewrites_fired\": ")? + "\"rewrites_fired\": ".len()..];
    let digits = value.find(|c: char| !c.is_ascii_digit())?;
    value[..digits].parse().ok()
}

#[derive(Debug)]
pub struct ServePlan<'a> {
    /// `serve_hit` (primed cache of 256) or `serve_miss` (cache of 16).
    pub hit: bool,
    /// Closed-loop callers, one connection and one thread each.
    pub connections: usize,
    pub pypmc: &'a Path,
    pub seed: u64,
    /// Requests per connection that open the timed phase; see
    /// [`crate::cold::ColdPlan::counted`].
    pub counted: usize,
    /// Requests over all connections after which the timed phase ends
    /// even if `seconds` have not passed.
    pub most: usize,
    pub seconds: f64,
    pub sensitivity: Sensitivity,
    pub trace: bool,
    /// Expected outputs of every key, in [`serve_keys`] order.
    pub expected: &'a [Output],
}

#[derive(Debug, Clone, Copy)]
struct Sample {
    key: u16,
    /// 0 is the counted phase.
    segment: u16,
    ns: u32,
}

impl Sample {
    fn ms(self) -> f64 {
        f64::from(self.ns) / 1e6
    }

    fn counted(self) -> bool {
        self.segment == 0
    }
}

#[derive(Debug, Default)]
struct ConnResult {
    /// Every request that succeeded; those of segment 0 are the counted.
    samples: Vec<Sample>,
    /// Wall of this connection's part of each segment.
    segment_wall_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    overloaded: u64,
    /// Traced `serve_miss` only: each counted reply with its round trip
    /// in ms, parsed after the run.
    kept: Vec<(f64, String)>,
    spans: Vec<Span>,
}

struct Conn<'a> {
    client: FrameClient,
    lines: &'a [String],
    cycle: &'a [u16],
    expected: &'a [Output],
    at: usize,
    segment: u16,
    op_base: u32,
    keep_replies: bool,
    result: ConnResult,
    /// After a transport failure the connection makes no more requests.
    dead: bool,
}

impl Conn<'_> {
    /// `requests` requests, however long they take.
    fn burst(&mut self, tr: &mut Tracer, requests: usize) {
        for _ in 0..requests {
            if !self.dead {
                self.one(tr);
            }
        }
    }

    fn one(&mut self, tr: &mut Tracer) {
        let key = self.cycle[self.at % self.cycle.len()];
        self.at += 1;
        let op = self.op_base + self.result.attempted as u32;
        self.result.attempted += 1;
        tr.enter("op", op);
        let started = Instant::now();
        let reply = tr.call("pypm.request", op, || {
            self.client
                .request(&self.lines[key as usize])
                .map(|(status, payload)| (status, totals_rewrites(payload)))
        });
        let elapsed = started.elapsed();
        let want = self.expected[key as usize].rewrites_fired;
        let problem = match reply {
            Ok((STATUS_OK, Some(fired))) if fired == want => None,
            Ok((STATUS_OK, fired)) => Some(format!("rewrites_fired {fired:?}, expected {want}")),
            Ok((status, _)) => {
                if status == STATUS_OVERLOADED {
                    self.result.overloaded += 1;
                }
                Some(format!("status {status}"))
            }
            Err(e) => {
                self.dead = true;
                Some(format!("transport: {e}"))
            }
        };
        tr.exit();
        match problem {
            None => {
                let sample = Sample {
                    key,
                    segment: self.segment,
                    ns: elapsed.as_nanos().min(u128::from(u32::MAX)) as u32,
                };
                self.result.samples.push(sample);
                if self.keep_replies && sample.counted() {
                    let payload = String::from_utf8_lossy(&self.client.reply).into_owned();
                    self.result
                        .kept
                        .push((elapsed.as_secs_f64() * 1e3, payload));
                }
            }
            Some(problem) => {
                self.result.failed += 1;
                if self.result.failures.len() < 5 {
                    let line = &self.lines[key as usize];
                    self.result.failures.push(format!("{line}: {problem}"));
                }
            }
        }
    }
}

/// A live server with its connections, after one set-up.
struct Booted {
    server: ServerProc,
    clients: Vec<FrameClient>,
    control: FrameClient,
}

/// Set-up: boot the server, connect, and send every key once, in `warm`
/// order, each connection an equal slice of it and all at once (a lone
/// caller would mostly time the VM waking a core, 180 times over). That
/// primes the cache on `serve_hit`; on `serve_miss` it fills the worker's
/// rule-set cache and key memo, so the timed phase sees the steady state.
fn boot(plan: &ServePlan<'_>, lines: &[String], warm: &[u16]) -> Result<Booted, String> {
    let cache = if plan.hit { 256 } else { 16 };
    let server = ServerProc::spawn(plan.pypmc, cache)?;
    let connect = || FrameClient::connect(&server.addr).map_err(|e| format!("connect: {e}"));
    let mut clients = Vec::new();
    for _ in 0..plan.connections {
        clients.push(connect()?);
    }
    let control = connect()?;
    let slice = warm.len().div_ceil(plan.connections);
    std::thread::scope(|scope| {
        let warming: Vec<_> = clients
            .iter_mut()
            .zip(warm.chunks(slice))
            .map(|(client, keys)| {
                scope.spawn(move || {
                    for line in keys.iter().map(|&k| &lines[k as usize]) {
                        match client.request(line) {
                            Ok((STATUS_OK, _)) => {}
                            Ok((status, _)) => {
                                return Err(format!("warm-up {line}: status {status}"))
                            }
                            Err(e) => return Err(format!("warm-up {line}: {e}")),
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        warming
            .into_iter()
            .try_for_each(|w| w.join().expect("a warm-up thread panicked"))
    })?;
    Ok(Booted {
        server,
        clients,
        control,
    })
}

#[derive(Debug, Clone, Copy, Default)]
struct ServerStats {
    hits: f64,
    misses: f64,
    stores: f64,
    evictions: f64,
    compiles_started: f64,
    shed_in_queue: f64,
    service_ewma_us: f64,
}

fn server_stats(control: &mut FrameClient) -> Result<ServerStats, String> {
    let (status, payload) = control
        .request("stats")
        .map_err(|e| format!("stats: {e}"))?;
    if status != STATUS_OK {
        return Err(format!("stats: status {status}"));
    }
    let doc = json::parse(payload)?;
    let cache = doc.get("cache").ok_or("pypm.serve.stats.v1 lacks cache")?;
    let field = |obj: &json::Value, key: &str| {
        obj.num(key)
            .ok_or_else(|| format!("pypm.serve.stats.v1 lacks {key}"))
    };
    Ok(ServerStats {
        hits: field(cache, "hits")?,
        misses: field(cache, "misses")?,
        stores: field(cache, "stores")?,
        evictions: field(cache, "evictions")?,
        compiles_started: field(&doc, "compiles_started")?,
        shed_in_queue: field(&doc, "shed_in_queue")?,
        service_ewma_us: field(&doc, "service_ewma_us")?,
    })
}

/// Runs one `serve_*` workload.
///
/// # Errors
///
/// Only a harness failure (no server, no `/proc`); a failing request is
/// counted, not returned.
pub fn run(plan: &ServePlan<'_>) -> Result<Outcome, String> {
    let origin = Instant::now();
    let yardstick = Yardstick::new();
    let mut readings = vec![yardstick.read()];
    let mut setups = Vec::new();
    let mut raw_setups = Vec::new();
    let mut booted = None;
    let mut keys: Vec<ServeKey> = Vec::new();
    let mut lines: Vec<String> = Vec::new();
    let mut cycle: Vec<u16> = Vec::new();
    for _ in 0..crate::cold::SETUP_REPEATS {
        if let Some(Booted { server, .. }) = booted.take() {
            ServerProc::stop(server)?;
            readings.push(yardstick.read());
        }
        let before = readings[readings.len() - 1];
        let started = Instant::now();
        keys = serve_keys();
        lines = keys.iter().map(ServeKey::request_line).collect();
        cycle = if plan.hit {
            hit_cycle(plan.seed, keys.len())
        } else {
            miss_cycle(plan.seed, keys.len())
        };
        // On `serve_miss` each connection warms the stretch of the cycle it
        // then starts on: the few keys a stretch leaves cached are its
        // last, which its connection next asks for some 160 evictions on.
        let warm: Vec<u16> = if plan.hit {
            (0..keys.len() as u16).collect()
        } else {
            cycle.clone()
        };
        booted = Some(boot(plan, &lines, &warm)?);
        let raw = started.elapsed().as_secs_f64();
        let after = yardstick.read();
        readings.push(after);
        raw_setups.push(raw);
        setups.push(raw * to_reference(before, after, plan.sensitivity.setup));
    }
    let Booted {
        server,
        clients,
        mut control,
    } = booted.expect("set-up ran");
    if plan.expected.len() != keys.len() {
        return Err("expected outputs do not cover the working set".to_owned());
    }

    let before = server_stats(&mut control)?;
    let cpu_before = proc_cpu_seconds(server.pid()).ok_or("cannot read the server's CPU time")?;
    let barrier = Barrier::new(plan.connections + 1);
    let stop = AtomicBool::new(false);
    let issued = AtomicUsize::new(plan.counted * plan.connections);
    // The reading before the counted phase, then one after each segment.
    let mut paced = vec![readings[readings.len() - 1]];
    let mut boundary = Err("the counted phase did not finish".to_owned());
    let mut results: Vec<ConnResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, client)| {
                let mut conn = Conn {
                    client,
                    lines: &lines,
                    cycle: &cycle,
                    expected: plan.expected,
                    // Evenly spaced round the cycle: see `miss_cycle`.
                    at: c * cycle.len() / plan.connections,
                    segment: 0,
                    op_base: (c * 100_000_000) as u32,
                    keep_replies: plan.trace && !plan.hit,
                    result: ConnResult::default(),
                    dead: false,
                };
                let (barrier, stop, issued) = (&barrier, &stop, &issued);
                scope.spawn(move || {
                    let mut tr = Tracer::new(plan.trace, origin);
                    barrier.wait();
                    let started = Instant::now();
                    conn.burst(&mut tr, plan.counted);
                    conn.result
                        .segment_wall_s
                        .push(started.elapsed().as_secs_f64());
                    tr.set(false);
                    loop {
                        // Idle while the main thread reads the yardstick
                        // and decides whether there is another segment.
                        barrier.wait();
                        barrier.wait();
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        conn.segment += 1;
                        let resumed = Instant::now();
                        if plan.trace && conn.segment == MIRROR {
                            conn.burst(&mut tr, plan.counted);
                        } else {
                            // One budget for all: they stop together, and no
                            // request is made with fewer callers than planned.
                            while !conn.dead
                                && resumed.elapsed() < SEGMENT
                                && issued.fetch_add(1, Ordering::Relaxed) < plan.most
                            {
                                conn.one(&mut tr);
                            }
                        }
                        conn.result
                            .segment_wall_s
                            .push(resumed.elapsed().as_secs_f64());
                    }
                    conn.result.spans = tr.into_spans();
                    conn.result
                })
            })
            .collect();
        barrier.wait();
        let timed = Instant::now();
        loop {
            barrier.wait();
            if paced.len() == 1 {
                // Every connection is idle: the server's counters and
                // memory are those of exactly the counted requests.
                boundary = server_stats(&mut control).and_then(|after| {
                    let cpu = proc_cpu_seconds(server.pid())
                        .ok_or("cannot read the server's CPU time")?;
                    let rss = proc_status_mb(&server.pid().to_string(), "VmHWM")
                        .ok_or("cannot read the server's VmHWM")?;
                    Ok((after, cpu, rss))
                });
            }
            paced.push(yardstick.read());
            let more = timed.elapsed().as_secs_f64() < plan.seconds
                && issued.load(Ordering::Relaxed) < plan.most
                && paced.len() <= usize::from(u16::MAX);
            stop.store(!more, Ordering::SeqCst);
            barrier.wait();
            if !more {
                break;
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("a connection thread panicked"))
            .collect()
    });
    let (after, cpu_after, peak_rss_mb) = boundary?;

    let mut rows: Vec<Row> = keys.iter().map(|k| Row::new(k.label())).collect();
    let mut failures = Vec::new();
    let (mut attempted, mut failed, mut overloaded) = (0, 0, 0);
    let mut raw_op_ms = Vec::new();
    let mut spans = Vec::new();
    // What a wall time of each segment is multiplied by to stand at
    // reference speed.
    let speed: Vec<f64> = paced
        .windows(2)
        .map(|pair| to_reference(pair[0], pair[1], plan.sensitivity.op))
        .collect();
    let mut by_segment: Vec<Vec<f64>> = vec![Vec::new(); speed.len()];
    for r in &results {
        attempted += r.attempted;
        failed += r.failed;
        overloaded += r.overloaded;
        failures.extend(r.failures.iter().cloned());
        for s in &r.samples {
            let ms = s.ms() * speed[usize::from(s.segment)];
            let row = &mut rows[s.key as usize];
            if s.counted() {
                row.traced_ms.push(ms);
            } else {
                row.ms.push(ms);
            }
            by_segment[usize::from(s.segment)].push(ms);
            raw_op_ms.push(s.ms());
        }
    }
    // Each segment's own percentiles and rate, then the median segment:
    // a stretch in which the box stalls, or in which the scheduler packs
    // every thread onto one core, is one segment among forty.
    let mut segments = Vec::new();
    for (at, ms) in by_segment.iter_mut().enumerate() {
        if ms.is_empty() {
            continue;
        }
        ms.sort_by(f64::total_cmp);
        let wall_s = results
            .iter()
            .filter_map(|r| r.segment_wall_s.get(at))
            .fold(0f64, |a, &b| a.max(b));
        segments.push(Segment {
            requests: ms.len(),
            p50_ms: percentile(ms, 50.0),
            p90_ms: percentile(ms, 90.0),
            ops_per_s: ms.len() as f64 / (wall_s * speed[at]),
            yardstick_ms: (paced[at] + paced[at + 1]) / 2.0,
        });
    }
    let across = |of: fn(&Segment) -> f64| median(&segments.iter().map(of).collect::<Vec<_>>());
    let op_ms = by_segment.concat();
    readings.extend(&paced[1..]);

    // The cache did what the workload is built on.
    let hits = after.hits - before.hits;
    let misses = after.misses - before.misses;
    let probes = hits + misses;
    let hit_share = if probes > 0.0 { hits / probes } else { 0.0 };
    let want_share = if plan.hit { 1.0 } else { 0.0 };
    if failed == 0 && hit_share != want_share {
        failures.push(format!(
            "cache hit share of the counted requests is {hit_share}, not {want_share}"
        ));
    }

    // Serve replies carry no graph, so the same compile runs here, on
    // today's serve default (restart, fused): its outputs are checked
    // against the expected file, the served `rewrites_fired` was checked
    // against the same file, and code quality is read off these graphs.
    let mut tr = Tracer::new(false, origin);
    let mut speedups = Vec::new();
    let (mut nodes_in, mut nodes_out) = (0u64, 0u64);
    for (at, key) in keys.iter().enumerate() {
        let c = compile(
            |s| key.model.build(s),
            key.lib(),
            Engine::new("restart", "fused"),
            &mut tr,
            0,
        )?;
        let row = &mut rows[at];
        row.in_nodes = c.in_nodes;
        row.output = c.output();
        if c.output() != plan.expected[at] {
            failed += (row.ms.len() + row.traced_ms.len()) as u64;
            failures.push(format!(
                "{}: differs from benchmark/expected.json",
                row.label
            ));
        }
        speedups.push(c.cost_before / c.cost_after);
        nodes_in += c.in_nodes;
        nodes_out += c.out_nodes;
    }

    let mut layer = LayerMetrics::new();
    if plan.trace {
        for r in results.iter_mut() {
            merge(&mut spans, std::mem::take(&mut r.spans));
        }
        let mut counters = Counters::default();
        let mut outside = Vec::new();
        for (rtt_ms, reply) in results.iter().flat_map(|r| &r.kept) {
            let doc = json::parse(reply)?;
            let totals = doc.get("totals").ok_or("a reply lacks totals")?;
            counters.add_totals(totals)?;
            outside.push(rtt_ms - totals.num("wall_ms").ok_or("totals lack wall_ms")?);
        }
        counters.report(&mut layer);
        let all = sorted(&op_ms);
        if plan.hit {
            // Nothing compiled: the whole round trip is outside the pipeline.
            layer.insert("pypm.outside_pipeline_ms", percentile(&all, 50.0));
        } else {
            let compiled = outside.len().max(1) as f64;
            layer.insert("pypm-engine.run_ms", counters.run_ms / compiled);
            if counters.rewrites_fired > 0 {
                layer.insert(
                    "pypm-engine.ms_per_rewrite",
                    counters.run_ms / counters.rewrites_fired as f64,
                );
            }
            layer.insert("pypm.outside_pipeline_ms", median(&outside));
        }
        let counted_nodes: u64 = results
            .iter()
            .flat_map(|r| &r.samples)
            .filter(|s| s.counted())
            .map(|s| rows[s.key as usize].in_nodes)
            .sum();
        layer.insert("pypm-models.nodes_in", counted_nodes as f64);
        layer.insert("pypm.rtt_p99_ms", percentile(&all, 99.0));
        layer.insert("pypm.rtt_max_ms", all[all.len() - 1]);
        layer.insert("pypm-wire.cache_hits", hits);
        layer.insert("pypm-wire.cache_misses", misses);
        layer.insert("pypm-wire.cache_stores", after.stores - before.stores);
        layer.insert(
            "pypm-wire.cache_evictions",
            after.evictions - before.evictions,
        );
        layer.insert("pypm-wire.cache_hit_share", hit_share);
        layer.insert(
            "pypm.compiles_started",
            after.compiles_started - before.compiles_started,
        );
        layer.insert(
            "pypm.shed_in_queue",
            after.shed_in_queue - before.shed_in_queue,
        );
        layer.insert("pypm.overloaded", overloaded as f64);
        layer.insert("pypm.service_ewma_us", after.service_ewma_us);
        layer.insert("pypm.server_cpu_s", cpu_after - cpu_before);

        let mut pings = Vec::new();
        for _ in 0..1000 {
            let started = Instant::now();
            control.request("ping").map_err(|e| format!("ping: {e}"))?;
            pings.push(started.elapsed().as_secs_f64() * 1e6);
        }
        layer.insert("pypm.ping_rtt_us", median(&pings));

        probes::span_medians(&spans, &mut layer);
        let mut mirrored: Vec<Vec<f64>> = vec![Vec::new(); rows.len()];
        for s in results.iter().flat_map(|r| &r.samples) {
            if s.segment == MIRROR {
                mirrored[s.key as usize].push(s.ms() * speed[usize::from(MIRROR)]);
            }
        }
        probes::trace_overhead(
            rows.iter()
                .zip(&mirrored)
                .map(|(row, untraced)| (&row.traced_ms[..], &untraced[..])),
            &mut layer,
        );
        // Every ninth key: every config and both zoos are in the sample.
        let sample: Vec<probes::ProbeInput<'_>> = keys
            .iter()
            .step_by(9)
            .map(|key| probes::ProbeInput {
                build: Box::new(move |s: &mut Session| key.model.build(s)),
                lib: key.lib(),
            })
            .collect();
        probes::layer_calls(&sample, if plan.hit { 256 } else { 16 }, &mut layer);
    }
    drop(control);
    server.stop()?;

    if op_ms.is_empty() {
        return Err(format!("no request succeeded: {failures:?}"));
    }
    Ok(Outcome {
        setup_s: median(&setups),
        op_p50_ms: across(|s| s.p50_ms),
        op_p90_ms: across(|s| s.p90_ms),
        ops_per_s: across(|s| s.ops_per_s),
        op_ms,
        segments,
        as_timed: AsTimed {
            setup_s: median(&raw_setups),
            op_ms: raw_op_ms,
            yardstick_ms: readings,
        },
        peak_rss_mb,
        attempted,
        failed: failed.min(attempted),
        sim_speedup: geomean(&speedups),
        out_nodes_share: nodes_out as f64 / nodes_in as f64,
        input_digest: digest_of(cycle.iter().map(|&k| lines[k as usize].clone())),
        rows,
        failures,
        layer,
        spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A one-connection server speaking the documented frames: it
    /// answers `ping` with OK/`pong`, anything else with status 1 and
    /// the request echoed back.
    fn frame_server() -> (String, std::thread::JoinHandle<Vec<String>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut seen = Vec::new();
            loop {
                let mut len = [0u8; 4];
                if stream.read_exact(&mut len).is_err() {
                    return seen;
                }
                let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
                stream.read_exact(&mut payload).unwrap();
                let text = String::from_utf8(payload).unwrap();
                let (status, body) = match text.as_str() {
                    "ping" => (0u8, "pong".to_owned()),
                    "huge" => {
                        // Only the header: the client must refuse it unread.
                        let mut reply = vec![0u8];
                        reply.extend_from_slice(&u32::MAX.to_le_bytes());
                        stream.write_all(&reply).unwrap();
                        seen.push(text);
                        continue;
                    }
                    other => (1u8, format!("echo {other}")),
                };
                let mut reply = vec![status];
                reply.extend_from_slice(&(body.len() as u32).to_le_bytes());
                reply.extend_from_slice(body.as_bytes());
                stream.write_all(&reply).unwrap();
                seen.push(text);
            }
        });
        (addr, handle)
    }

    #[test]
    fn frames_round_trip_against_a_listener() {
        let (addr, server) = frame_server();
        let mut client = FrameClient::connect(&addr).unwrap();
        assert_eq!(client.request("ping").unwrap(), (0, "pong"));
        assert_eq!(
            client.request("compile bert-tiny config=both").unwrap(),
            (1, "echo compile bert-tiny config=both")
        );
        assert_eq!(client.request("").unwrap(), (1, "echo "));
        let refused = client.request("huge").unwrap_err();
        assert_eq!(refused.kind(), io::ErrorKind::InvalidData);
        drop(client);
        let seen = server.join().unwrap();
        assert_eq!(seen, ["ping", "compile bert-tiny config=both", "", "huge"]);
    }

    #[test]
    fn rewrites_are_read_from_totals_not_from_a_pass() {
        let report = "{\"passes\": [{\"rewrites_fired\": 1, \"sweeps\": 2}],\n  \
                      \"totals\": {\"passes\": 1, \"rewrites_fired\": 37, \"sweeps\": 2}}";
        assert_eq!(totals_rewrites(report), Some(37));
        assert_eq!(totals_rewrites("{\"totals\": {}}"), None);
        assert_eq!(totals_rewrites("pong"), None);
    }
}
