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
//! A frame is built and read in one byte buffer per direction, which a
//! connection keeps: `encode_into` appends the payload behind a
//! placeholder and patches the length in, so a frame is one `write`;
//! [`read_frame`] fills the caller's buffer as bytes arrive; and
//! `decode_bytes` reads the text where it lies, checking that it is
//! UTF-8 as it goes. `encode` and `decode` are the same codec for a
//! caller that holds a frame's payload as a `String`.
//!
//! The protocol is deliberately hand-rolled over `std` only: the
//! workspace is offline and the paper's runtime needs nothing richer
//! than "submit a graph, stream back results".

use std::io::{self, Read, Write};
use std::str;
use std::time::Duration;

use orchestra_runtime::threaded::ExecutorBackend;
use orchestra_runtime::PolicyKind;

/// Protocol revision, checked in `hello`.
pub(crate) const PROTOCOL_VERSION: u32 = 2;

/// Upper bound on one frame's payload; a graph plus its outputs fits
/// comfortably, and a corrupt length prefix fails fast instead of
/// attempting a multi-gigabyte read.
pub(crate) const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Bytes of a frame's length prefix.
const PREFIX: usize = 4;

/// Builds one frame in `frame`, replacing what the buffer held: room
/// for the length prefix, the payload `payload` appends, and the prefix
/// last, when the length is known — prefix and payload are one buffer,
/// so a frame is one `write`.
fn build_frame(frame: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>) -> io::Result<()>) {
    frame.clear();
    frame.extend_from_slice(&[0; PREFIX]);
    payload(frame).expect("a write to a Vec does not fail");
    // A length past `u32` is past `MAX_FRAME` too: `write_frame`
    // refuses the frame by its size, whatever the prefix says.
    let len = u32::try_from(frame.len() - PREFIX).unwrap_or(u32::MAX);
    frame[..PREFIX].copy_from_slice(&len.to_le_bytes());
}

/// The payload `payload` appends, alone and as text: what `encode`
/// returns to a caller that holds payloads as `String`s.
fn payload_text(payload: impl FnOnce(&mut Vec<u8>) -> io::Result<()>) -> String {
    let mut out = Vec::new();
    payload(&mut out).expect("a write to a Vec does not fail");
    String::from_utf8(out).expect("every field is written from text")
}

/// Writes one frame — the `u32` little-endian payload length and the
/// payload, as [`Request::encode_into`] or [`Response::encode_into`]
/// left them in `frame` — with a single `write_all`.
///
/// # Errors
///
/// Propagates the transport's I/O errors; a payload over `MAX_FRAME`,
/// or bytes whose prefix is not their length, are rejected with
/// [`io::ErrorKind::InvalidInput`] and nothing is written.
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> io::Result<()> {
    match frame.split_first_chunk::<PREFIX>() {
        Some((&prefix, payload))
            if payload.len() <= MAX_FRAME as usize
                && payload.len() == u32::from_le_bytes(prefix) as usize =>
        {
            w.write_all(frame)
        }
        _ => Err(io::Error::new(io::ErrorKind::InvalidInput, "frame too large or malformed")),
    }
}

/// Reads one frame's payload into `buf`, replacing what the buffer
/// held, and returns it. Returns `Ok(None)` on a clean end-of-stream
/// (the peer closed between frames); a close *inside* a frame is an
/// error. The buffer grows with the bytes that arrive, never with the
/// length the prefix declares. Read through a `BufReader`, a frame that
/// fits its buffer costs one `read`.
///
/// # Errors
///
/// Propagates transport errors; an oversized length is
/// [`io::ErrorKind::InvalidData`].
pub fn read_frame<'a>(r: &mut impl Read, buf: &'a mut Vec<u8>) -> io::Result<Option<&'a [u8]>> {
    let mut len = [0u8; PREFIX];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let n = u32::from_le_bytes(len);
    if n > MAX_FRAME {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "frame length out of range"));
    }
    buf.clear();
    if r.take(u64::from(n)).read_to_end(buf)? < n as usize {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "frame cut short"));
    }
    Ok(Some(buf))
}

fn utf8(bytes: &[u8]) -> Result<&str, String> {
    str::from_utf8(bytes).map_err(|_| "frame is not UTF-8".to_string())
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
        PolicyKind::Taper => "taper",
        PolicyKind::TaperCostFn => "tapercost",
    }
}

fn parse_policy(s: &str) -> Option<PolicyKind> {
    match s {
        "static" => Some(PolicyKind::Static),
        "selfsched" => Some(PolicyKind::SelfSched),
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

/// The values of the fields `keys` among the `key=value` words of a
/// verb line, found in one pass over the line; where a key repeats its
/// last value counts.
fn fields<'a, const N: usize>(line: &'a str, keys: [&str; N]) -> [Option<&'a str>; N] {
    let mut values = [None; N];
    for (key, value) in line.split_whitespace().filter_map(|word| word.split_once('=')) {
        if let Some(at) = keys.iter().position(|k| *k == key) {
            values[at] = Some(value);
        }
    }
    values
}

fn need<'a>(value: Option<&'a str>, key: &str) -> Result<&'a str, String> {
    value.ok_or_else(|| format!("missing field `{key}`"))
}

fn need_u64(value: Option<&str>, key: &str) -> Result<u64, String> {
    need(value, key)?.parse().map_err(|_| format!("field `{key}` is not an integer"))
}

/// The `job` field four verbs carry and nothing else.
fn job_field(line: &str) -> Result<u64, String> {
    let [job] = fields(line, ["job"]);
    need_u64(job, "job")
}

/// Whether `name` is a valid tenant token (so names never need
/// escaping on the wire).
pub(crate) fn valid_tenant(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

impl Request {
    fn write_payload(&self, out: &mut Vec<u8>) -> io::Result<()> {
        match self {
            Request::Hello { tenant, weight } => {
                write!(out, "hello v={PROTOCOL_VERSION} tenant={tenant} weight={weight}")
            }
            Request::Submit { opts, graph } => {
                write!(
                    out,
                    "submit backend={} policy={} seed={}",
                    backend_name(opts.backend),
                    policy_name(opts.policy),
                    opts.seed
                )?;
                if let Some(d) = opts.deadline {
                    write!(out, " deadline_us={}", d.as_micros())?;
                }
                if let Some(dir) = &opts.checkpoint_dir {
                    write!(out, " checkpoint={dir}")?;
                }
                out.push(b'\n');
                out.write_all(graph.as_bytes())
            }
            Request::Wait { job } => write!(out, "wait job={job}"),
            Request::Cancel { job } => write!(out, "cancel job={job}"),
            Request::Stats => out.write_all(b"stats"),
            Request::Shutdown => out.write_all(b"shutdown"),
        }
    }

    /// Encodes the request as a whole frame, length prefix included,
    /// in `frame` (replacing what it held), for [`write_frame`].
    pub fn encode_into(&self, frame: &mut Vec<u8>) {
        build_frame(frame, |out| self.write_payload(out));
    }

    /// The frame payload [`encode_into`](Request::encode_into) writes,
    /// as text.
    pub fn encode(&self) -> String {
        payload_text(|out| self.write_payload(out))
    }

    /// Decodes a frame payload as [`read_frame`] delivers it. A request
    /// is text throughout, so it is checked to be UTF-8 whole.
    ///
    /// # Errors
    ///
    /// As [`decode`](Request::decode), and for a payload that is not
    /// UTF-8.
    pub(crate) fn decode_bytes(payload: &[u8]) -> Result<Request, String> {
        Request::decode(utf8(payload)?)
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    ///
    /// Returns a one-line reason for unknown verbs or malformed
    /// fields (the daemon echoes it back in [`Response::Err`]).
    pub fn decode(payload: &str) -> Result<Request, String> {
        let (head, body) = payload.split_once('\n').unwrap_or((payload, ""));
        let verb = head.split_whitespace().next().unwrap_or("");
        match verb {
            "hello" => {
                let [v, tenant, weight] = fields(head, ["v", "tenant", "weight"]);
                let v: u32 =
                    need_u64(v, "v")?.try_into().map_err(|_| "version out of range".to_string())?;
                if v != PROTOCOL_VERSION {
                    return Err(format!("protocol version {v} unsupported"));
                }
                let tenant = need(tenant, "tenant")?.to_string();
                if !valid_tenant(&tenant) {
                    return Err(format!("invalid tenant name `{tenant}`"));
                }
                let weight: f64 = need(weight, "weight")?
                    .parse()
                    .map_err(|_| "field `weight` is not a number".to_string())?;
                if !(weight.is_finite() && weight > 0.0) {
                    return Err("weight must be finite and positive".to_string());
                }
                Ok(Request::Hello { tenant, weight })
            }
            "submit" => {
                let [backend, policy, seed, deadline, checkpoint] =
                    fields(head, ["backend", "policy", "seed", "deadline_us", "checkpoint"]);
                let backend = parse_backend(need(backend, "backend")?)
                    .ok_or_else(|| "unknown backend".to_string())?;
                let policy = parse_policy(need(policy, "policy")?)
                    .ok_or_else(|| "unknown policy".to_string())?;
                let seed = need_u64(seed, "seed")?;
                let deadline = match deadline {
                    Some(v) => Some(Duration::from_micros(
                        v.parse().map_err(|_| "bad deadline_us".to_string())?,
                    )),
                    None => None,
                };
                let checkpoint_dir = checkpoint.map(str::to_string);
                Ok(Request::Submit {
                    opts: JobOptions { backend, policy, seed, deadline, checkpoint_dir },
                    graph: body.to_string(),
                })
            }
            "wait" => Ok(Request::Wait { job: job_field(head)? }),
            "cancel" => Ok(Request::Cancel { job: job_field(head)? }),
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

/// Splits `bytes` at its first line feed the way `str::lines` does:
/// the line without its terminator (`\n` or `\r\n`), and what follows.
fn split_line(bytes: &[u8]) -> (&[u8], &[u8]) {
    match bytes.iter().position(|&b| b == b'\n') {
        Some(at) => {
            let line = &bytes[..at];
            (line.strip_suffix(b"\r").unwrap_or(line), &bytes[at + 1..])
        }
        None => (bytes, &[]),
    }
}

/// A result value on the wire as [`Response`] writes it: one space and
/// the sixteen hex digits of the `f64`'s bit pattern.
const TOKEN: usize = 17;

/// Every byte of a word set to `b`.
const fn bytes_of(b: u8) -> u64 {
    u64::from_ne_bytes([b; 8])
}

/// The eight lowercase hex digits of `x`, most significant first — all
/// eight nibbles at once, each in a byte of one word.
fn hex8(x: u32) -> [u8; 8] {
    // One nibble to a byte, in order.
    let x = u64::from(x);
    let x = (x | x << 16) & 0x0000_ffff_0000_ffff;
    let x = (x | x << 8) & 0x00ff_00ff_00ff_00ff;
    let x = (x | x << 4) & bytes_of(0x0f);
    // A nibble past 9 carries into bit 4 when 6 is added; such a byte
    // gets `'a' - 10`, the others `'0'`. No byte passes `'f'`, so
    // nothing carries from one byte into the next.
    let letters = (x + bytes_of(6)) >> 4 & bytes_of(1);
    (x + bytes_of(b'0') + letters * u64::from(b'a' - 10 - b'0')).to_be_bytes()
}

/// Reads eight hex digits of either case, most significant first: their
/// value, and a word that is zero exactly when all eight bytes were hex
/// digits (the value means nothing otherwise).
fn unhex8(digits: [u8; 8]) -> (u32, u64) {
    let x = u64::from_be_bytes(digits);
    // With bit 7 cleared, adding less than 0x80 to each byte carries
    // nowhere, and leaves bit 7 set where the byte reached a bound:
    // `b + (0x80 - lo)` where `b >= lo`, `b + (0x7f - hi)` where
    // `b > hi`. Letters are compared with bit 5 set, digits as they are.
    let low7 = x & bytes_of(0x7f);
    let lower = low7 | bytes_of(0x20);
    let digit = (low7 + bytes_of(0x80 - b'0')) & !(low7 + bytes_of(0x7f - b'9'));
    let letter =
        (lower + bytes_of(0x80 - b'a')) & !(lower + bytes_of(0x7f - b'f')) & bytes_of(0x80);
    let bad = (!(digit | letter) | x) & bytes_of(0x80);
    // A letter's low nibble is its value less 9.
    let x = (x & bytes_of(0x0f)) + (letter >> 7) * 9;
    let x = (x | x >> 4) & 0x00ff_00ff_00ff_00ff;
    let x = (x | x >> 8) & 0x0000_ffff_0000_ffff;
    ((x | x >> 16) as u32, bad)
}

/// Appends `values` as [`TOKEN`]-byte tokens.
fn write_values(out: &mut Vec<u8>, values: &[f64]) {
    let start = out.len();
    out.resize(start + TOKEN * values.len(), b' ');
    for (token, v) in out[start..].chunks_exact_mut(TOKEN).zip(values) {
        let bits = v.to_bits();
        token[1..9].copy_from_slice(&hex8((bits >> 32) as u32));
        token[9..].copy_from_slice(&hex8(bits as u32));
    }
}

/// Reads the values of one `out` line — whitespace-separated hex `u64`
/// bit patterns — from the head of `body`, which begins after the
/// line's count field; returns them and what follows the line.
///
/// A value written the way [`write_values`] writes it (one space,
/// sixteen hex digits, then a space or the end of the line) is read by
/// [`unhex8`] in one pass over the bytes, which also finds the line's
/// end; from the first token that is anything else, the rest of the
/// line goes through `split_whitespace` and `from_str_radix`. Sixteen
/// hex digits mean to `from_str_radix` what they mean to `unhex8`, so
/// what is accepted, and as what, is exactly what the general reader
/// alone accepts. `declared` only sizes the buffer, and never past what
/// the bytes present could hold (a value takes at least two).
fn read_values(body: &[u8], declared: usize) -> Result<(Vec<f64>, &[u8]), String> {
    let mut values = Vec::with_capacity(declared.min(body.len() / 2));
    let mut at = 0;
    while let Some(token) = body.get(at..at + TOKEN) {
        if token[0] != b' ' || !matches!(body.get(at + TOKEN), None | Some(b' ' | b'\n')) {
            break;
        }
        let (hi, bad_hi) = unhex8(token[1..9].try_into().expect("eight of seventeen bytes"));
        let (lo, bad_lo) = unhex8(token[9..].try_into().expect("eight of seventeen bytes"));
        if bad_hi | bad_lo != 0 {
            break;
        }
        values.push(f64::from_bits(u64::from(hi) << 32 | u64::from(lo)));
        at += TOKEN;
    }
    let (tail, rest) = split_line(&body[at..]);
    for token in utf8(tail)?.split_whitespace() {
        let bits =
            u64::from_str_radix(token, 16).map_err(|_| "malformed value bits".to_string())?;
        values.push(f64::from_bits(bits));
    }
    Ok((values, rest))
}

/// How many leading bytes of `body` hold the first three words of its
/// first line (`out`, the op's name, the value count): up to the third
/// word's end, counting only the encoder's single space as a separator,
/// or the line's end. Whatever else separates words is found by
/// [`next_token`] once these bytes are known to be text — it may find
/// the third word earlier, never later.
fn out_head_len(body: &[u8]) -> usize {
    let mut words = 0;
    for (at, &b) in body.iter().enumerate() {
        match b {
            b'\n' => return at,
            b' ' if at > 0 && body[at - 1] != b' ' => {
                words += 1;
                if words == 3 {
                    return at;
                }
            }
            _ => {}
        }
    }
    body.len()
}

/// Reads the `out` lines of a result, one per op, without looking for
/// a line's end before its values are read.
fn read_outputs(mut body: &[u8]) -> Result<Vec<WireOutput>, String> {
    let mut outputs = Vec::new();
    while !body.is_empty() {
        let head = utf8(&body[..out_head_len(body)])?;
        let Some(("out", rest)) = next_token(head) else {
            return Err("malformed result body".to_string());
        };
        let (name, rest) = next_token(rest).ok_or_else(|| "missing op name".to_string())?;
        let (n, rest) = next_token(rest)
            .and_then(|(n, rest)| Some((n.parse::<usize>().ok()?, rest)))
            .ok_or_else(|| "missing value count".to_string())?;
        let (values, after) = read_values(&body[head.len() - rest.len()..], n)?;
        if values.len() != n {
            return Err("value count mismatch".to_string());
        }
        outputs.push(WireOutput { name: name.to_string(), values });
        body = after;
    }
    Ok(outputs)
}

impl Response {
    fn write_payload(&self, out: &mut Vec<u8>) -> io::Result<()> {
        match self {
            Response::Hello { session, workers } => {
                write!(out, "ok-hello session={session} workers={workers}")
            }
            Response::Submitted { job } => write!(out, "ok-submit job={job}"),
            Response::Result(r) => {
                write!(
                    out,
                    "ok-result job={} wall_us={} attempts={} resumed={} outs={}",
                    r.job,
                    r.wall_us,
                    r.attempts,
                    r.resumed_tasks,
                    r.outputs.len()
                )?;
                for o in &r.outputs {
                    write!(out, "\nout {} {}", o.name, o.values.len())?;
                    write_values(out, &o.values);
                }
                Ok(())
            }
            Response::Cancelled { job } => write!(out, "ok-cancel job={job}"),
            Response::Stats { workers, jobs } => {
                write!(out, "ok-stats workers={workers} jobs={}", jobs.len())?;
                for j in jobs {
                    write!(
                        out,
                        "\njob id={} tenant={} state={} grant={}",
                        j.job, j.tenant, j.state, j.grant
                    )?;
                }
                Ok(())
            }
            Response::Drained => out.write_all(b"ok-drained"),
            Response::Err { msg } => {
                out.extend_from_slice(b"err ");
                out.extend(msg.bytes().map(|b| if b == b'\n' { b' ' } else { b }));
                Ok(())
            }
        }
    }

    /// Encodes the response as a whole frame, length prefix included,
    /// in `frame` (replacing what it held), for [`write_frame`].
    pub fn encode_into(&self, frame: &mut Vec<u8>) {
        build_frame(frame, |out| self.write_payload(out));
    }

    /// The frame payload [`encode_into`](Response::encode_into) writes,
    /// as text.
    pub fn encode(&self) -> String {
        payload_text(|out| self.write_payload(out))
    }

    /// Decodes a frame payload. The text is checked to be UTF-8 where
    /// it is read — the head line, op names, a value token that is not
    /// sixteen hex digits — not in a pass of its own.
    ///
    /// # Errors
    ///
    /// Returns a one-line reason when the payload is not a valid
    /// response frame.
    pub(crate) fn decode_bytes(payload: &[u8]) -> Result<Response, String> {
        let (head, body) = split_line(payload);
        let head = utf8(head)?;
        let verb = head.split_whitespace().next().unwrap_or("");
        if verb == "ok-result" {
            let outputs = read_outputs(body)?;
            let [outs, job, wall_us, attempts, resumed] =
                fields(head, ["outs", "job", "wall_us", "attempts", "resumed"]);
            if outputs.len() != need_u64(outs, "outs")? as usize {
                return Err("output count mismatch".to_string());
            }
            return Ok(Response::Result(WireResult {
                job: need_u64(job, "job")?,
                wall_us: need(wall_us, "wall_us")?
                    .parse()
                    .map_err(|_| "bad wall_us".to_string())?,
                attempts: need_u64(attempts, "attempts")? as usize,
                resumed_tasks: need_u64(resumed, "resumed")? as usize,
                outputs,
            }));
        }
        let body = utf8(body)?;
        match verb {
            "ok-hello" => {
                let [session, workers] = fields(head, ["session", "workers"]);
                Ok(Response::Hello {
                    session: need_u64(session, "session")?,
                    workers: need_u64(workers, "workers")? as usize,
                })
            }
            "ok-submit" => Ok(Response::Submitted { job: job_field(head)? }),
            "ok-cancel" => Ok(Response::Cancelled { job: job_field(head)? }),
            "ok-stats" => {
                let mut jobs = Vec::new();
                for line in body.lines() {
                    let [id, tenant, state, grant] =
                        fields(line, ["id", "tenant", "state", "grant"]);
                    jobs.push(JobRow {
                        job: need_u64(id, "id")?,
                        tenant: need(tenant, "tenant")?.to_string(),
                        state: need(state, "state")?.to_string(),
                        grant: need_u64(grant, "grant")? as usize,
                    });
                }
                let [workers] = fields(head, ["workers"]);
                Ok(Response::Stats { workers: need_u64(workers, "workers")? as usize, jobs })
            }
            "ok-drained" => Ok(Response::Drained),
            "err" => Ok(Response::Err { msg: head.strip_prefix("err ").unwrap_or("").to_string() }),
            other => Err(format!("unknown response `{other}`")),
        }
    }

    /// `decode_bytes` of a payload held as
    /// text.
    ///
    /// # Errors
    ///
    /// As `decode_bytes`.
    pub fn decode(payload: &str) -> Result<Response, String> {
        Response::decode_bytes(payload.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    /// The value reader on one line's values with no frame around them,
    /// which is how most tests below call it.
    fn read_values(rest: &str, declared: usize) -> Result<Vec<f64>, String> {
        super::read_values(rest.as_bytes(), declared).map(|(values, _)| values)
    }

    /// `payload` as the frame `encode_into` would make of it.
    fn frame_of(payload: &[u8]) -> Vec<u8> {
        let mut frame = Vec::new();
        build_frame(&mut frame, |out| out.write_all(payload));
        frame
    }

    /// Both views of the codec agree: the text of `encode` is the
    /// payload of `encode_into`'s frame, and decodes to the message.
    fn round_trip_req(r: Request) {
        let mut frame = vec![0xee; 7];
        r.encode_into(&mut frame);
        assert_eq!(frame, frame_of(r.encode().as_bytes()));
        assert_eq!(Request::decode_bytes(&frame[PREFIX..]).unwrap(), r);
        assert_eq!(Request::decode(&r.encode()).unwrap(), r);
    }

    fn round_trip_resp(r: Response) {
        let mut frame = vec![0xee; 7];
        r.encode_into(&mut frame);
        assert_eq!(frame, frame_of(r.encode().as_bytes()));
        assert_eq!(Response::decode_bytes(&frame[PREFIX..]).unwrap(), r);
        assert_eq!(Response::decode(&r.encode()).unwrap(), r);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_req(Request::Hello { tenant: "alice".into(), weight: 2.5 });
        round_trip_req(Request::Submit {
            opts: JobOptions {
                backend: ExecutorBackend::ThreadedDist,
                policy: PolicyKind::SelfSched,
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

    /// The result body reader `decode` had before `read_outputs`: split
    /// into lines first, every token through the general readers. Kept
    /// as the reference for it.
    fn reference_outputs(body: &str) -> Result<Vec<(String, Vec<u64>)>, String> {
        let mut outputs = Vec::new();
        for line in body.lines() {
            let Some(("out", rest)) = next_token(line) else {
                return Err("malformed result body".to_string());
            };
            let (name, rest) = next_token(rest).ok_or("missing op name")?;
            let (n, rest) = next_token(rest)
                .and_then(|(n, rest)| Some((n.parse::<usize>().ok()?, rest)))
                .ok_or("missing value count")?;
            let values = bit_patterns(reference_values(rest))?;
            if values.len() != n {
                return Err("value count mismatch".to_string());
            }
            outputs.push((name.to_string(), values));
        }
        Ok(outputs)
    }

    /// How an `out` line may begin; `{n}` is the count of its values.
    const OUT_HEADS: [&str; 10] = [
        "out A {n}",
        "out A {n}",
        "out \u{e9}t\u{e9} {n}",
        "out\tA  {n}",
        "\u{a0}out A\u{2003}{n}",
        "out A +{n}",
        " out  A {n}",
        "out A",
        "put A {n}",
        "",
    ];

    /// How a line may end.
    const LINE_ENDS: [&str; 6] = ["\n", "\n", "\n", "\r\n", "\r", "\n\n"];

    proptest::proptest! {
        #[test]
        fn result_body_reader_agrees_with_the_line_by_line_reference(
            lines in proptest::collection::vec(
                (
                    0..OUT_HEADS.len(),
                    proptest::collection::vec(
                        (0..SEPARATORS.len(), 0..13usize, proptest::prelude::any::<u64>()),
                        0..5,
                    ),
                    0..8usize,
                    0..LINE_ENDS.len(),
                ),
                0..5,
            ),
            cut in 0..60usize,
        ) {
            let mut body = String::new();
            for (head, tokens, miscount, end) in &lines {
                // One line in eight declares a count it does not hold.
                let n = tokens.len() + usize::from(*miscount == 0);
                body += &OUT_HEADS[*head].replace("{n}", &n.to_string());
                body += &values_line(tokens, 0);
                body += LINE_ENDS[*end];
            }
            // Every other body is whole, the rest lose up to 29 bytes.
            let mut end = body.len().saturating_sub(cut.saturating_sub(30));
            while !body.is_char_boundary(end) {
                end -= 1;
            }
            body.truncate(end);
            let read = read_outputs(body.as_bytes()).map(|outputs| {
                outputs
                    .into_iter()
                    .map(|o| (o.name, o.values.into_iter().map(f64::to_bits).collect()))
                    .collect::<Vec<(String, Vec<u64>)>>()
            });
            proptest::prop_assert_eq!(read.ok(), reference_outputs(&body).ok());
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
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame_of(b"hello world")).unwrap();
        write_frame(&mut wire, &frame_of(b"")).unwrap();
        let (mut r, mut buf) = (&wire[..], vec![1, 2, 3]);
        assert_eq!(read_frame(&mut r, &mut buf).unwrap(), Some(&b"hello world"[..]));
        assert_eq!(read_frame(&mut r, &mut buf).unwrap(), Some(&b""[..]));
        assert_eq!(read_frame(&mut r, &mut buf).unwrap(), None, "clean EOF");
    }

    #[test]
    fn torn_frames_and_bad_lengths_error() {
        let (frame, mut buf) = (frame_of(b"abcdef"), Vec::new());
        let mut torn = &frame[..frame.len() - 2];
        assert!(read_frame(&mut torn, &mut buf).is_err(), "EOF inside a frame");
        let huge = (MAX_FRAME + 1).to_le_bytes();
        assert!(read_frame(&mut &huge[..], &mut buf).is_err(), "oversized length prefix");
        let too_large = frame_of(&vec![0; MAX_FRAME as usize + 1]);
        for not_a_frame in [&too_large[..], &frame[..frame.len() - 1], b"abc"] {
            let mut wire = Vec::new();
            let err = write_frame(&mut wire, not_a_frame).unwrap_err();
            assert_eq!((err.kind(), wire.len()), (io::ErrorKind::InvalidInput, 0));
        }
    }

    #[test]
    fn a_declared_length_does_not_size_the_allocation() {
        // The largest length a prefix may declare, ten bytes, then EOF:
        // refused, and the buffer grew with the ten bytes, not the claim.
        let mut wire = MAX_FRAME.to_le_bytes().to_vec();
        wire.extend_from_slice(b"0123456789");
        let mut buf = Vec::new();
        let err = read_frame(&mut &wire[..], &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(buf.capacity() <= 4096, "capacity {}", buf.capacity());
    }

    /// Counts the calls that reach the transport.
    struct Counted<T> {
        inner: T,
        calls: usize,
    }

    impl<T: Write> Write for Counted<T> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            self.inner.write(buf)
        }

        fn flush(&mut self) -> io::Result<()> {
            self.calls += 1;
            self.inner.flush()
        }
    }

    impl<T: Read> Read for Counted<T> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.calls += 1;
            self.inner.read(buf)
        }
    }

    fn result_of(values: Vec<f64>) -> Response {
        Response::Result(WireResult {
            job: 3,
            wall_us: 4.5,
            attempts: 1,
            resumed_tasks: 0,
            outputs: vec![WireOutput { name: "A".into(), values }],
        })
    }

    #[test]
    fn a_frame_that_fits_the_read_buffer_is_one_write_and_one_read() {
        // 8 KiB with its prefix: what a `BufReader` holds.
        let resp = result_of((0..477).map(f64::from).collect());
        let mut frame = Vec::new();
        resp.encode_into(&mut frame);
        assert!((8192 - TOKEN..=8192).contains(&frame.len()), "{} bytes", frame.len());

        let mut wire = Counted { inner: Vec::new(), calls: 0 };
        write_frame(&mut wire, &frame).unwrap();
        assert_eq!(wire.calls, 1, "one write, no flush");

        let mut reader = BufReader::new(Counted { inner: &wire.inner[..], calls: 0 });
        let mut buf = Vec::new();
        let payload = read_frame(&mut reader, &mut buf).unwrap().expect("a frame");
        assert_eq!(Response::decode_bytes(payload).unwrap(), resp);
        assert_eq!(reader.get_ref().calls, 1, "prefix and payload in one read");
    }

    #[test]
    fn a_wide_result_crosses_a_socket_through_reused_buffers() {
        use std::os::unix::net::UnixStream;
        // 2 MiB of values, far more than a socket buffer holds.
        let mut bits = 0x9e37_79b9_7f4a_7c15_u64;
        let values: Vec<f64> = (0..(2 << 20) / TOKEN)
            .map(|_| {
                bits = bits.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(1);
                f64::from_bits(bits)
            })
            .collect();
        let wide = result_of(values);
        let small = Response::Submitted { job: 9 };
        let (mut tx, rx) = UnixStream::pair().unwrap();
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut frame = Vec::new();
                for resp in [&wide, &small, &wide] {
                    resp.encode_into(&mut frame);
                    write_frame(&mut tx, &frame).unwrap();
                }
            });
            let (mut reader, mut buf) = (BufReader::new(rx), Vec::new());
            for resp in [&wide, &small, &wide] {
                let payload = read_frame(&mut reader, &mut buf).unwrap().expect("a frame");
                let Ok(got) = Response::decode_bytes(payload) else { panic!("decodes") };
                match (&got, resp) {
                    (Response::Result(g), Response::Result(w)) => {
                        let bits = |r: &WireResult| -> Vec<u64> {
                            r.outputs[0].values.iter().map(|v| v.to_bits()).collect()
                        };
                        assert!(bits(g) == bits(w), "the values crossed bit for bit");
                    }
                    _ => assert_eq!(&got, resp),
                }
            }
        });
    }

    /// Sixteen hex digits as `from_str_radix` reads them: the reference
    /// for [`unhex8`].
    fn reference_bits(digits: &[u8]) -> Option<u64> {
        let text = str::from_utf8(digits).ok()?;
        // `from_str_radix` takes a sign; a canonical token has none.
        u64::from_str_radix(text, 16).ok().filter(|_| !text.starts_with('+'))
    }

    #[test]
    fn every_byte_at_every_position_of_a_token_reads_as_the_reference_reads_it() {
        for base in [" 0123456789abcdef", " FEDCBA9876543210", " ffffffffffffffff"] {
            for at in 0..TOKEN {
                for byte in 0..=255u8 {
                    let mut token = base.as_bytes().to_vec();
                    token[at] = byte;

                    // The SWAR reader alone.
                    let (hi, bad_hi) = unhex8(token[1..9].try_into().unwrap());
                    let (lo, bad_lo) = unhex8(token[9..].try_into().unwrap());
                    let swar = (token[0] == b' ' && bad_hi | bad_lo == 0)
                        .then_some(u64::from(hi) << 32 | u64::from(lo));
                    let reference = reference_bits(&token[1..]).filter(|_| token[0] == b' ');
                    assert_eq!(swar, reference, "byte {byte:#04x} at {at} of {base:?}");

                    // The line reader around it, the token first, last
                    // and alone on its line.
                    for line in [
                        token.clone(),
                        [&token[..], b" 0000000000000001"].concat(),
                        [b" 0000000000000001", &token[..]].concat(),
                    ] {
                        let got = super::read_values(&line, 2);
                        let (text, rest) = split_line(&line);
                        let expected = utf8(text).and_then(reference_values);
                        assert_eq!(
                            bit_patterns(got.map(|(values, after)| {
                                assert_eq!(after, rest, "the line ends where `lines` ends it");
                                values
                            })),
                            bit_patterns(expected),
                            "byte {byte:#04x} at {at} of {base:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn values_are_written_as_format_writes_them() {
        let mut patterns = vec![
            0,
            (-0.0f64).to_bits(),
            1,
            f64::MIN_POSITIVE.to_bits() - 1,
            f64::MAX.to_bits(),
            f64::NAN.to_bits(),
            0x7ff0_0000_0000_0001,
            0xfff8_dead_beef_cafe,
            u64::MAX,
            0x0f0f_0f0f_0f0f_0f0f,
            0xf0f0_f0f0_f0f0_f0f0,
            0xa9a9_a9a9_9a9a_9a9a,
            0x0123_4567_89ab_cdef,
        ];
        let mut bits = 1u64;
        patterns.extend((0..10_000).map(|_| {
            bits = bits.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(0x1405_7b7e_f767_814f);
            bits ^ bits >> 29
        }));
        let values: Vec<f64> = patterns.iter().copied().map(f64::from_bits).collect();
        let mut out = b"kept".to_vec();
        write_values(&mut out, &values);
        let reference: String = patterns.iter().map(|bits| format!(" {bits:016x}")).collect();
        assert_eq!(str::from_utf8(&out).unwrap(), format!("kept{reference}"));
        let (read, after) = super::read_values(&out[4..], values.len()).unwrap();
        assert!(after.is_empty());
        assert_eq!(bit_patterns(Ok(read)), Ok(patterns));
    }

    /// A frame payload to mutate: every verb of both directions, and
    /// results of a few shapes.
    fn sample_payload(kind: usize, bits: u64) -> Vec<u8> {
        let values = |n: u64| (0..n).map(|i| f64::from_bits(bits.rotate_left(i as u32))).collect();
        let text = match kind % 12 {
            0 => Request::Hello { tenant: "alice".into(), weight: 2.5 }.encode(),
            1 => Request::Submit {
                opts: JobOptions {
                    checkpoint_dir: Some("/tmp/ck".into()),
                    ..JobOptions::default()
                },
                graph: "delirium g\nnode A task cost=1\nend\n".into(),
            }
            .encode(),
            2 => Request::Wait { job: bits }.encode(),
            3 => Request::Stats.encode(),
            4 => Response::Hello { session: bits, workers: 8 }.encode(),
            5 => Response::Err { msg: "no such job".into() }.encode(),
            6 => Response::Stats {
                workers: 2,
                jobs: vec![JobRow { job: 1, tenant: "a".into(), state: "done".into(), grant: 0 }],
            }
            .encode(),
            7 => result_of(values(0)).encode(),
            8 => result_of(values(1)).encode(),
            9 => Response::Result(WireResult {
                job: 1,
                wall_us: 2.0,
                attempts: 1,
                resumed_tasks: 0,
                outputs: vec![
                    WireOutput { name: "\u{e9}t\u{e9}".into(), values: values(bits % 40) },
                    WireOutput { name: "B".into(), values: values(3) },
                ],
            })
            .encode(),
            10 => format!("ok-result job=1 wall_us=2 attempts=1 resumed=0 outs=1\nout A {bits} 0"),
            _ => result_of(values(bits % 600)).encode(),
        };
        text.into_bytes()
    }

    proptest::proptest! {
        /// Arbitrary, truncated, corrupted and oversized byte sequences
        /// through `read_frame` and both decoders: an answer, never a
        /// panic; memory in proportion to the bytes that arrived,
        /// whatever a prefix or a count declares; and only UTF-8
        /// accepted.
        #[test]
        fn no_byte_sequence_panics_or_sizes_an_allocation(
            kind in 0..14usize,
            bits in proptest::prelude::any::<u64>(),
            flips in proptest::collection::vec(
                (proptest::prelude::any::<u64>(), proptest::prelude::any::<u64>()),
                0..4,
            ),
            cut in 0..3000usize,
            declared in proptest::prelude::any::<u64>(),
        ) {
            let mut payload = match kind {
                // Noise, not a message.
                12 | 13 => (0..bits % 200).map(|i| (bits.rotate_left(i as u32 * 7)) as u8).collect(),
                _ => sample_payload(kind, bits),
            };
            for &(at, byte) in &flips {
                if !payload.is_empty() {
                    let at = at as usize % payload.len();
                    payload[at] = byte as u8;
                }
            }
            // One case in three keeps its frame whole; the others lose
            // their tail, or declare another length than they carry.
            let mut wire = frame_of(&payload);
            match cut % 3 {
                0 => {}
                1 => wire.truncate(wire.len().saturating_sub(cut / 3)),
                _ => wire[..PREFIX].copy_from_slice(&(declared as u32 >> (cut % 32)).to_le_bytes()),
            }

            let mut buf = Vec::new();
            let whole = matches!(read_frame(&mut &wire[..], &mut buf), Ok(Some(_)));
            proptest::prop_assert!(
                buf.capacity() <= 2 * wire.len() + 64,
                "{} bytes of buffer for {} on the wire", buf.capacity(), wire.len()
            );
            if !whole {
                return Ok(());
            }
            let got = &buf[..];
            let is_text = str::from_utf8(got).is_ok();
            if let Ok(req) = Request::decode_bytes(got) {
                proptest::prop_assert!(is_text, "accepted a non-UTF-8 request: {req:?}");
            }
            if let Ok(resp) = Response::decode_bytes(got) {
                proptest::prop_assert!(is_text, "accepted a non-UTF-8 response: {resp:?}");
                if let Response::Result(r) = &resp {
                    let held: usize = r.outputs.iter().map(|o| o.values.capacity()).sum();
                    proptest::prop_assert!(held <= got.len() / 2, "{held} values held");
                }
            }
        }
    }

    #[test]
    fn text_that_is_not_utf8_is_refused_wherever_it_sits() {
        let result =
            "ok-result job=1 wall_us=2 attempts=1 resumed=0 outs=1\nout A 1 3ff0000000000000";
        let stats = "ok-stats workers=1 jobs=1\njob id=1 tenant=a state=done grant=0";
        for frame in [result, "ok-submit job=1\nignored", stats] {
            assert!(Response::decode(frame).is_ok(), "{frame}");
            for at in 0..frame.len() {
                let mut bytes = frame.as_bytes().to_vec();
                bytes[at] = 0xff;
                assert!(Response::decode_bytes(&bytes).is_err(), "0xff at {at} of {frame:?}");
            }
        }
        let submit = "submit backend=threaded policy=taper seed=1\ndelirium g\nend\n";
        for at in 0..submit.len() {
            let mut bytes = submit.as_bytes().to_vec();
            bytes[at] = 0xff;
            assert!(Request::decode_bytes(&bytes).is_err(), "0xff at {at}");
        }
    }

    #[test]
    fn malformed_requests_are_rejected() {
        assert!(Request::decode("nonsense").is_err());
        assert!(Request::decode("hello v=2 tenant=a/b weight=1").is_err(), "bad tenant char");
        assert!(Request::decode("hello v=99 tenant=a weight=1").is_err(), "bad version");
        assert!(Request::decode("hello v=2 tenant=a weight=-2").is_err(), "negative weight");
        assert!(Request::decode("submit backend=gpu policy=taper seed=1\n").is_err());
        assert!(Request::decode("submit backend=threaded policy=gss seed=1\n").is_err());
        assert!(Request::decode("wait").is_err(), "missing job id");
    }
}
