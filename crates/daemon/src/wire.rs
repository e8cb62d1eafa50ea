//! The `orchestrad` wire protocol: length-prefixed text frames.
//!
//! Every message is one frame — a little-endian `u32` payload length
//! followed by that many bytes of UTF-8 text. The text is line
//! oriented: the first line is the verb with `key=value` fields, and
//! some messages carry a body on the following lines (a Delirium
//! graph in [`text`](orchestra_delirium::text) form for `submit`, one
//! `out` line per op for `result`). Output values travel as `f64`
//! *bit patterns* in hex, so what the daemon computed is what the
//! client reassembles — bitwise, with no decimal round-trip in
//! between.
//!
//! The protocol is deliberately hand-rolled over `std` only: the
//! workspace is offline and the paper's runtime needs nothing richer
//! than "submit a graph, stream back results".

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::time::Duration;

use orchestra_runtime::threaded::ExecutorBackend;
use orchestra_runtime::PolicyKind;

/// Protocol revision, checked in `hello`.
pub const PROTOCOL_VERSION: u32 = 1;

/// Upper bound on one frame's payload; a graph plus its outputs fits
/// comfortably, and a corrupt length prefix fails fast instead of
/// attempting a multi-gigabyte allocation.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Writes one frame: `u32` little-endian length, then the payload.
///
/// # Errors
///
/// Propagates the transport's I/O errors; payloads over [`MAX_FRAME`]
/// are rejected with [`io::ErrorKind::InvalidInput`].
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    let bytes = payload.as_bytes();
    if bytes.len() > MAX_FRAME as usize {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "frame too large"));
    }
    w.write_all(&(bytes.len() as u32).to_le_bytes())?;
    w.write_all(bytes)?;
    w.flush()
}

/// Reads one frame. Returns `Ok(None)` on a clean end-of-stream (the
/// peer closed between frames); a close *inside* a frame is an error.
///
/// # Errors
///
/// Propagates transport errors; oversized lengths and invalid UTF-8
/// are [`io::ErrorKind::InvalidData`].
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<String>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let n = u32::from_le_bytes(len);
    if n > MAX_FRAME {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "frame length out of range"));
    }
    let mut buf = vec![0u8; n as usize];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))
}

/// Per-job execution options a tenant may choose. This is the subset
/// of [`ExecutorOptions`](orchestra_runtime::ExecutorOptions) that
/// makes sense across a process boundary — thread counts come from
/// the daemon's cross-graph scheduler, not the client.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOptions {
    /// Execution engine for this graph. The simulator is not served:
    /// it models an nCUBE-2, not the daemon's host pool.
    pub backend: ExecutorBackend,
    /// Chunk policy for the graph's data-parallel ops.
    pub policy: PolicyKind,
    /// Cost-sampling seed, so resubmitting the same graph with the
    /// same seed is bitwise-reproducible.
    pub seed: u64,
    /// Submission-to-completion deadline; the daemon aborts the job
    /// with `DeadlineExceeded` once it expires.
    pub deadline: Option<Duration>,
    /// Snapshot directory on the *daemon's* filesystem. When set the
    /// job runs under
    /// [`execute_graph_resumable`](orchestra_runtime::execute_graph_resumable)
    /// and survives a worker-pool crash by restoring from the latest
    /// snapshot.
    pub checkpoint_dir: Option<String>,
}

impl Default for JobOptions {
    fn default() -> Self {
        JobOptions {
            backend: ExecutorBackend::Threaded,
            policy: PolicyKind::Taper,
            seed: 0x5eed,
            deadline: None,
            checkpoint_dir: None,
        }
    }
}

fn backend_name(b: ExecutorBackend) -> &'static str {
    match b {
        ExecutorBackend::Simulated => "simulated",
        ExecutorBackend::Threaded => "threaded",
        ExecutorBackend::ThreadedDist => "dist",
        ExecutorBackend::Async => "async",
    }
}

fn parse_backend(s: &str) -> Option<ExecutorBackend> {
    match s {
        "simulated" => Some(ExecutorBackend::Simulated),
        "threaded" => Some(ExecutorBackend::Threaded),
        "dist" => Some(ExecutorBackend::ThreadedDist),
        "async" => Some(ExecutorBackend::Async),
        _ => None,
    }
}

fn policy_name(p: PolicyKind) -> &'static str {
    match p {
        PolicyKind::Static => "static",
        PolicyKind::SelfSched => "selfsched",
        PolicyKind::Gss => "gss",
        PolicyKind::Factoring => "factoring",
        PolicyKind::Taper => "taper",
        PolicyKind::TaperCostFn => "tapercost",
    }
}

fn parse_policy(s: &str) -> Option<PolicyKind> {
    match s {
        "static" => Some(PolicyKind::Static),
        "selfsched" => Some(PolicyKind::SelfSched),
        "gss" => Some(PolicyKind::Gss),
        "factoring" => Some(PolicyKind::Factoring),
        "taper" => Some(PolicyKind::Taper),
        "tapercost" => Some(PolicyKind::TaperCostFn),
        _ => None,
    }
}

/// A request frame, client → daemon.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Opens a session: tenant identity and scheduling weight.
    Hello {
        /// Tenant name (one `[A-Za-z0-9_.-]+` token).
        tenant: String,
        /// Scheduling weight (> 0); scales this tenant's share of the
        /// worker pool in the cross-graph equalizer.
        weight: f64,
    },
    /// Submits a graph (the body is its Delirium text form).
    Submit {
        /// Execution options for this job.
        opts: JobOptions,
        /// `delirium … end` text, as printed by
        /// [`text::print`](orchestra_delirium::text::print).
        graph: String,
    },
    /// Blocks until the job reaches a terminal state. A finished job's
    /// result is delivered at most once: the first `wait` whose
    /// response the daemon wrote in full takes it, and any later (or
    /// concurrent) `wait` on that job gets an `Err` saying so. A `wait`
    /// whose connection dropped before the response was written leaves
    /// the result in place for a retry on a new connection.
    Wait {
        /// Job id from [`Response::Submitted`].
        job: u64,
    },
    /// Requests cooperative cancellation of a running or queued job.
    Cancel {
        /// Job id from [`Response::Submitted`].
        job: u64,
    },
    /// Asks for the daemon's live job table and worker grants.
    Stats,
    /// Asks the daemon to drain: finish running jobs, refuse new ones,
    /// close the socket.
    Shutdown,
}

/// One op's output buffer on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireOutput {
    /// Op (node) name.
    pub name: String,
    /// Output values, bit-exact.
    pub values: Vec<f64>,
}

/// One completed job's result.
#[derive(Debug, Clone, PartialEq)]
pub struct WireResult {
    /// The job this result belongs to.
    pub job: u64,
    /// Wall-clock time across all attempts, µs.
    pub wall_us: f64,
    /// Executions launched (> 1 when crash recovery resumed the job).
    pub attempts: usize,
    /// Tasks restored from a snapshot rather than re-executed.
    pub resumed_tasks: usize,
    /// Per-op outputs, in the executed plan's op order.
    pub outputs: Vec<WireOutput>,
}

/// One row of the daemon's live job table.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRow {
    /// Job id.
    pub job: u64,
    /// Owning tenant.
    pub tenant: String,
    /// `queued` / `running` / `done` / `failed` / `cancelled`.
    pub state: String,
    /// Workers currently granted by the cross-graph scheduler (0 for
    /// queued or terminal jobs).
    pub grant: usize,
}

/// A response frame, daemon → client.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Session opened.
    Hello {
        /// Session id (diagnostic only).
        session: u64,
        /// Size of the shared worker pool being partitioned.
        workers: usize,
    },
    /// Graph admitted (possibly queued); the id names it from now on.
    Submitted {
        /// Daemon-wide job id.
        job: u64,
    },
    /// A `wait` completed with the job's outputs.
    Result(WireResult),
    /// Cancellation request acknowledged (delivery, not completion).
    Cancelled {
        /// The job the cancel was delivered to.
        job: u64,
    },
    /// The live job table.
    Stats {
        /// Pool size.
        workers: usize,
        /// One row per job the daemon still remembers.
        jobs: Vec<JobRow>,
    },
    /// Drain finished; the daemon is exiting.
    Drained,
    /// Any failure: admission rejection, parse error, cancelled or
    /// failed job on `wait`.
    Err {
        /// Human-readable reason (single line).
        msg: String,
    },
}

/// Splits `key=value` fields of a verb line into a map.
fn fields(line: &str) -> BTreeMap<&str, &str> {
    line.split_whitespace().filter_map(|w| w.split_once('=')).collect()
}

fn need<'a>(f: &BTreeMap<&str, &'a str>, key: &str) -> Result<&'a str, String> {
    f.get(key).copied().ok_or_else(|| format!("missing field `{key}`"))
}

fn need_u64(f: &BTreeMap<&str, &str>, key: &str) -> Result<u64, String> {
    need(f, key)?.parse().map_err(|_| format!("field `{key}` is not an integer"))
}

/// Whether `name` is a valid tenant token (so names never need
/// escaping on the wire).
pub fn valid_tenant(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

impl Request {
    /// Encodes the request as a frame payload.
    pub fn encode(&self) -> String {
        match self {
            Request::Hello { tenant, weight } => {
                format!("hello v={PROTOCOL_VERSION} tenant={tenant} weight={weight}")
            }
            Request::Submit { opts, graph } => {
                let mut s = format!(
                    "submit backend={} policy={} seed={}",
                    backend_name(opts.backend),
                    policy_name(opts.policy),
                    opts.seed
                );
                if let Some(d) = opts.deadline {
                    s.push_str(&format!(" deadline_us={}", d.as_micros()));
                }
                if let Some(dir) = &opts.checkpoint_dir {
                    s.push_str(&format!(" checkpoint={dir}"));
                }
                s.push('\n');
                s.push_str(graph);
                s
            }
            Request::Wait { job } => format!("wait job={job}"),
            Request::Cancel { job } => format!("cancel job={job}"),
            Request::Stats => "stats".to_string(),
            Request::Shutdown => "shutdown".to_string(),
        }
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    ///
    /// Returns a one-line reason for unknown verbs or malformed
    /// fields (the daemon echoes it back in [`Response::Err`]).
    pub fn decode(payload: &str) -> Result<Request, String> {
        let (head, body) = match payload.split_once('\n') {
            Some((h, b)) => (h, b),
            None => (payload, ""),
        };
        let verb = head.split_whitespace().next().unwrap_or("");
        let f = fields(head);
        match verb {
            "hello" => {
                let v: u32 = need_u64(&f, "v")?
                    .try_into()
                    .map_err(|_| "version out of range".to_string())?;
                if v != PROTOCOL_VERSION {
                    return Err(format!("protocol version {v} unsupported"));
                }
                let tenant = need(&f, "tenant")?.to_string();
                if !valid_tenant(&tenant) {
                    return Err(format!("invalid tenant name `{tenant}`"));
                }
                let weight: f64 = need(&f, "weight")?
                    .parse()
                    .map_err(|_| "field `weight` is not a number".to_string())?;
                if !(weight.is_finite() && weight > 0.0) {
                    return Err("weight must be finite and positive".to_string());
                }
                Ok(Request::Hello { tenant, weight })
            }
            "submit" => {
                let backend = parse_backend(need(&f, "backend")?)
                    .ok_or_else(|| "unknown backend".to_string())?;
                let policy = parse_policy(need(&f, "policy")?)
                    .ok_or_else(|| "unknown policy".to_string())?;
                let seed = need_u64(&f, "seed")?;
                let deadline = match f.get("deadline_us") {
                    Some(v) => Some(Duration::from_micros(
                        v.parse().map_err(|_| "bad deadline_us".to_string())?,
                    )),
                    None => None,
                };
                let checkpoint_dir = f.get("checkpoint").map(|s| (*s).to_string());
                Ok(Request::Submit {
                    opts: JobOptions { backend, policy, seed, deadline, checkpoint_dir },
                    graph: body.to_string(),
                })
            }
            "wait" => Ok(Request::Wait { job: need_u64(&f, "job")? }),
            "cancel" => Ok(Request::Cancel { job: need_u64(&f, "job")? }),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown request `{other}`")),
        }
    }
}

/// Splits off the next whitespace-delimited token of `s`, as
/// `split_whitespace` would, returning it and what follows it.
fn next_token(s: &str) -> Option<(&str, &str)> {
    let s = s.trim_start();
    let end = s.find(char::is_whitespace).unwrap_or(s.len());
    (end > 0).then(|| s.split_at(end))
}

/// The value of an ASCII hex digit of either case, `0xff` for every
/// other byte.
const NIBBLE: [u8; 256] = {
    let mut table = [0xff; 256];
    let mut i = 0;
    while i < 16 {
        table[b"0123456789abcdef"[i] as usize] = i as u8;
        table[b"0123456789ABCDEF"[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// Reads the values of one `out` line — `rest` is the line after its
/// count field — as whitespace-separated hex `u64` bit patterns.
///
/// A value written the way [`Response::encode`] writes it (one space,
/// sixteen hex digits, then a space or the end of the line) is read
/// through [`NIBBLE`] in one pass over the bytes; from the first token
/// that is anything else, the rest of the line goes through
/// `split_whitespace` and `from_str_radix`. Sixteen hex digits mean to
/// `from_str_radix` what they mean to the table, so what is accepted,
/// and as what, is exactly what the general reader alone accepts.
/// `declared` only sizes the buffer, and never past what the bytes on
/// the line could hold (a value takes at least two).
fn read_values(rest: &str, declared: usize) -> Result<Vec<f64>, String> {
    let bytes = rest.as_bytes();
    let mut values = Vec::with_capacity(declared.min(bytes.len() / 2));
    let mut at = 0;
    while let Some(token) = bytes.get(at..at + 17) {
        if token[0] != b' ' || !matches!(bytes.get(at + 17), None | Some(b' ')) {
            break;
        }
        let (mut bits, mut seen) = (0u64, 0u8);
        for &b in &token[1..] {
            let nibble = NIBBLE[b as usize];
            seen |= nibble;
            bits = bits << 4 | u64::from(nibble & 0xf);
        }
        if seen > 0xf {
            break;
        }
        values.push(f64::from_bits(bits));
        at += 17;
    }
    // Only ASCII was consumed, so `at` is a character boundary.
    for token in rest[at..].split_whitespace() {
        let bits =
            u64::from_str_radix(token, 16).map_err(|_| "malformed value bits".to_string())?;
        values.push(f64::from_bits(bits));
    }
    Ok(values)
}

impl Response {
    /// Encodes the response as a frame payload.
    pub fn encode(&self) -> String {
        match self {
            Response::Hello { session, workers } => {
                format!("ok-hello session={session} workers={workers}")
            }
            Response::Submitted { job } => format!("ok-submit job={job}"),
            Response::Result(r) => {
                let mut s = format!(
                    "ok-result job={} wall_us={} attempts={} resumed={} outs={}",
                    r.job,
                    r.wall_us,
                    r.attempts,
                    r.resumed_tasks,
                    r.outputs.len()
                );
                // Every value is " " + 16 hex digits: reserve once, then
                // write nibbles from a table — no allocation per value.
                const HEX: &[u8; 16] = b"0123456789abcdef";
                let values: usize = r.outputs.iter().map(|o| o.values.len()).sum();
                s.reserve(17 * values + 32 * r.outputs.len());
                for o in &r.outputs {
                    s.push('\n');
                    s.push_str(&format!("out {} {}", o.name, o.values.len()));
                    for v in &o.values {
                        let bits = v.to_bits();
                        s.push(' ');
                        for shift in (0..16).rev() {
                            s.push(HEX[(bits >> (4 * shift)) as usize & 0xf] as char);
                        }
                    }
                }
                s
            }
            Response::Cancelled { job } => format!("ok-cancel job={job}"),
            Response::Stats { workers, jobs } => {
                let mut s = format!("ok-stats workers={workers} jobs={}", jobs.len());
                for j in jobs {
                    s.push('\n');
                    s.push_str(&format!(
                        "job id={} tenant={} state={} grant={}",
                        j.job, j.tenant, j.state, j.grant
                    ));
                }
                s
            }
            Response::Drained => "ok-drained".to_string(),
            Response::Err { msg } => format!("err {}", msg.replace('\n', " ")),
        }
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    ///
    /// Returns a one-line reason when the payload is not a valid
    /// response frame.
    pub fn decode(payload: &str) -> Result<Response, String> {
        let mut lines = payload.lines();
        let head = lines.next().unwrap_or("");
        let verb = head.split_whitespace().next().unwrap_or("");
        let f = fields(head);
        match verb {
            "ok-hello" => Ok(Response::Hello {
                session: need_u64(&f, "session")?,
                workers: need_u64(&f, "workers")? as usize,
            }),
            "ok-submit" => Ok(Response::Submitted { job: need_u64(&f, "job")? }),
            "ok-result" => {
                let mut outputs = Vec::new();
                for line in lines {
                    let Some(("out", rest)) = next_token(line) else {
                        return Err("malformed result body".to_string());
                    };
                    let (name, rest) =
                        next_token(rest).ok_or_else(|| "missing op name".to_string())?;
                    let (n, rest) = next_token(rest)
                        .and_then(|(n, rest)| Some((n.parse::<usize>().ok()?, rest)))
                        .ok_or_else(|| "missing value count".to_string())?;
                    let values = read_values(rest, n)?;
                    if values.len() != n {
                        return Err("value count mismatch".to_string());
                    }
                    outputs.push(WireOutput { name: name.to_string(), values });
                }
                let declared = need_u64(&f, "outs")? as usize;
                if outputs.len() != declared {
                    return Err("output count mismatch".to_string());
                }
                Ok(Response::Result(WireResult {
                    job: need_u64(&f, "job")?,
                    wall_us: need(&f, "wall_us")?.parse().map_err(|_| "bad wall_us".to_string())?,
                    attempts: need_u64(&f, "attempts")? as usize,
                    resumed_tasks: need_u64(&f, "resumed")? as usize,
                    outputs,
                }))
            }
            "ok-cancel" => Ok(Response::Cancelled { job: need_u64(&f, "job")? }),
            "ok-stats" => {
                let mut jobs = Vec::new();
                for line in lines {
                    let jf = fields(line);
                    jobs.push(JobRow {
                        job: need_u64(&jf, "id")?,
                        tenant: need(&jf, "tenant")?.to_string(),
                        state: need(&jf, "state")?.to_string(),
                        grant: need_u64(&jf, "grant")? as usize,
                    });
                }
                Ok(Response::Stats { workers: need_u64(&f, "workers")? as usize, jobs })
            }
            "ok-drained" => Ok(Response::Drained),
            "err" => Ok(Response::Err { msg: head.strip_prefix("err ").unwrap_or("").to_string() }),
            other => Err(format!("unknown response `{other}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_req(r: Request) {
        assert_eq!(Request::decode(&r.encode()).unwrap(), r);
    }

    fn round_trip_resp(r: Response) {
        assert_eq!(Response::decode(&r.encode()).unwrap(), r);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_req(Request::Hello { tenant: "alice".into(), weight: 2.5 });
        round_trip_req(Request::Submit {
            opts: JobOptions {
                backend: ExecutorBackend::ThreadedDist,
                policy: PolicyKind::Gss,
                seed: 42,
                deadline: Some(Duration::from_micros(1_500_000)),
                checkpoint_dir: Some("/tmp/ck".into()),
            },
            graph: "delirium g\nnode A task cost=1\nend\n".into(),
        });
        round_trip_req(Request::Wait { job: 7 });
        round_trip_req(Request::Cancel { job: 7 });
        round_trip_req(Request::Stats);
        round_trip_req(Request::Shutdown);
    }

    #[test]
    fn responses_round_trip_bitwise() {
        // Values chosen to break a decimal round-trip: subnormals,
        // negative zero, and a long irrational fraction.
        let vals = vec![f64::MIN_POSITIVE / 2.0, -0.0, std::f64::consts::PI, 1e300];
        round_trip_resp(Response::Hello { session: 3, workers: 8 });
        round_trip_resp(Response::Submitted { job: 9 });
        round_trip_resp(Response::Result(WireResult {
            job: 9,
            wall_us: 123.5,
            attempts: 2,
            resumed_tasks: 17,
            outputs: vec![
                WireOutput { name: "A".into(), values: vals },
                WireOutput { name: "B".into(), values: vec![] },
            ],
        }));
        round_trip_resp(Response::Cancelled { job: 9 });
        round_trip_resp(Response::Stats {
            workers: 8,
            jobs: vec![JobRow { job: 1, tenant: "a".into(), state: "running".into(), grant: 4 }],
        });
        round_trip_resp(Response::Drained);
        round_trip_resp(Response::Err { msg: "no such job".into() });
    }

    #[test]
    fn result_values_are_sixteen_lowercase_hex_digits() {
        let values = vec![0.0, -0.0, 1.0, f64::MAX, f64::from_bits(0x0123_4567_89ab_cdef)];
        let reference: String = values.iter().map(|v| format!(" {:016x}", v.to_bits())).collect();
        let result = WireResult {
            job: 1,
            wall_us: 2.0,
            attempts: 1,
            resumed_tasks: 0,
            outputs: vec![WireOutput { name: "A".into(), values }],
        };
        let text = Response::Result(result).encode();
        assert_eq!(text.lines().nth(1), Some(format!("out A 5{reference}").as_str()));
    }

    /// The value reader `decode` had before `read_values`: every token
    /// through `from_str_radix`. Kept as the reference for it.
    fn reference_values(rest: &str) -> Result<Vec<f64>, String> {
        rest.split_whitespace()
            .map(|h| u64::from_str_radix(h, 16).map(f64::from_bits))
            .collect::<Result<_, _>>()
            .map_err(|_| "malformed value bits".to_string())
    }

    /// One value token of kind `kind` carrying (some of) `bits`.
    fn value_token(kind: usize, bits: u64) -> String {
        match kind {
            0..=3 => format!("{bits:016x}"),
            4 => format!("{bits:016X}"),
            5 => format!("{:x}", bits >> (bits % 61)),
            6 => format!("000{bits:016x}"),
            7 => format!("f{bits:016x}"),
            8 => format!("+{:015x}", bits >> 4),
            9 => format!("{:014x}\u{e9}", bits >> 8),
            10 => format!("{:015x}g", bits >> 4),
            11 => format!("-{:x}", bits >> 40),
            _ => "0x10".to_string(),
        }
    }

    /// Mostly the encoder's single space; doubled, ASCII and Unicode
    /// whitespace among them.
    const SEPARATORS: [&str; 8] = [" ", " ", " ", " ", "  ", "\t", "\u{a0}", " \u{3000}"];

    /// The values part of an `out` line made of `tokens` (separator,
    /// token kind, bits), with its last `cut` bytes missing (back to a
    /// character boundary).
    fn values_line(tokens: &[(usize, usize, u64)], cut: usize) -> String {
        let mut line: String = tokens
            .iter()
            .map(|&(sep, kind, bits)| format!("{}{}", SEPARATORS[sep], value_token(kind, bits)))
            .collect();
        let mut end = line.len().saturating_sub(cut);
        while !line.is_char_boundary(end) {
            end -= 1;
        }
        line.truncate(end);
        line
    }

    fn bit_patterns(read: Result<Vec<f64>, String>) -> Result<Vec<u64>, String> {
        read.map(|values| values.into_iter().map(f64::to_bits).collect())
    }

    proptest::proptest! {
        #[test]
        fn value_reader_agrees_with_the_per_token_reference(
            tokens in proptest::collection::vec(
                (0..SEPARATORS.len(), 0..13usize, proptest::prelude::any::<u64>()),
                0..14,
            ),
            cut in 0..40usize,
            declared in 0..20usize,
        ) {
            // Every other line is whole, the rest lose up to 19 bytes.
            let line = values_line(&tokens, cut.saturating_sub(20));
            proptest::prop_assert_eq!(
                bit_patterns(read_values(&line, declared)),
                bit_patterns(reference_values(&line))
            );
        }
    }

    #[test]
    fn result_lines_split_on_any_whitespace_as_before() {
        let frame = "ok-result job=1 wall_us=2 attempts=1 resumed=0 outs=2\n\
                     out\tA  3 3ff0000000000000\t+1  4000000000000000\n\
                     \u{a0}out B 0 ";
        let Response::Result(r) = Response::decode(frame).unwrap() else { panic!("a result") };
        assert_eq!(r.outputs[0].values, vec![1.0, f64::from_bits(1), 2.0]);
        assert_eq!((r.outputs[1].name.as_str(), r.outputs[1].values.len()), ("B", 0));
        for bad in ["out A 1 zz", "out A x 0", "out", "put A 0", "out A 2 0000000000000000"] {
            let frame = format!("ok-result job=1 wall_us=2 attempts=1 resumed=0 outs=1\n{bad}");
            assert!(Response::decode(&frame).is_err(), "{bad}");
        }
    }

    #[test]
    fn a_declared_count_does_not_size_the_allocation() {
        // 2^32 values declared on a 40-byte line: rejected, and the
        // buffer was sized by the bytes present, not by the claim.
        let line = "out A 4294967296 3ff0000000000000";
        assert!(line.len() <= 40);
        let (_, rest) = line.split_at(16);
        let values = read_values(rest, 1 << 32).unwrap();
        assert_eq!(values, vec![1.0]);
        assert!(values.capacity() <= rest.len() / 2, "capacity {}", values.capacity());
        let frame = format!("ok-result job=1 wall_us=2 attempts=1 resumed=0 outs=1\n{line}");
        assert_eq!(Response::decode(&frame), Err("value count mismatch".to_string()));
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello world").unwrap();
        write_frame(&mut buf, "").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("hello world"));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(""));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn torn_frames_and_bad_lengths_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "abcdef").unwrap();
        let mut torn = &buf[..buf.len() - 2];
        assert!(read_frame(&mut torn).is_err(), "EOF inside a frame");
        let huge = (MAX_FRAME + 1).to_le_bytes();
        assert!(read_frame(&mut &huge[..]).is_err(), "oversized length prefix");
    }

    #[test]
    fn malformed_requests_are_rejected() {
        assert!(Request::decode("nonsense").is_err());
        assert!(Request::decode("hello v=1 tenant=a/b weight=1").is_err(), "bad tenant char");
        assert!(Request::decode("hello v=99 tenant=a weight=1").is_err(), "bad version");
        assert!(Request::decode("hello v=1 tenant=a weight=-2").is_err(), "negative weight");
        assert!(Request::decode("submit backend=gpu policy=taper seed=1\n").is_err());
        assert!(Request::decode("wait").is_err(), "missing job id");
    }
}
