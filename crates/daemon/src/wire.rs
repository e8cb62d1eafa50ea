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
//! A result streams through a fixed buffer at both ends; nothing else
//! is large enough to need it. The daemon writes a result frame in
//! pieces of at most 64 KiB, through one buffer its connection reuses.
//! The length prefix is worked out before the first piece: the head
//! line's bytes, plus each `out` line's head, plus 17 bytes per value.
//! A wide job's result of 28 672 values (some 487 500 bytes) is eight
//! `write`s. The client reads it with [`read_response`] from a
//! `BufReader` of 64 KiB, in eight `read`s where the socket has the
//! bytes ready and more where it does not. A result's body is exactly
//! what the encoder writes: after the `ok-result … outs=K` head line
//! come K lines, each `\nout <name> <n>` and then n tokens of one space
//! and sixteen lowercase hex digits; any other byte is refused. The
//! counts say where every token lies, so values are decoded in whole
//! tokens from the reader's buffer straight into each output's
//! `Vec<f64>`, and a token that straddles two reads is completed in a
//! 17-byte array; the caller's buffer holds only a line head.
//!
//! Any other frame is built and read whole: `encode_into` appends the
//! payload behind a placeholder and patches the length in, so it is one
//! `write`; [`read_frame`] fills the caller's buffer as bytes arrive.
//! Their head lines are read by words, and every word after the verb
//! is a `key=value` field the line defines, each at most once. `encode` and `decode` are the same codec for
//! a caller that holds a frame's payload as a `String`: the result
//! writer with a `Vec` for its sink, and the result reader over a byte
//! slice.
//!
//! The protocol is deliberately hand-rolled over `std` only: the
//! workspace is offline and the paper's runtime needs nothing richer
//! than "submit a graph, stream back results".

use std::io::{self, BufRead, Read, Write};
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

/// The most bytes a result's writer holds before it writes them, and
/// the read buffer its reader is given: a wide job's result crosses in
/// eight pieces, a small job's in one.
pub(crate) const CHUNK: usize = 64 << 10;

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
    let Some(n) = read_prefix(r)? else {
        return Ok(None);
    };
    buf.clear();
    if r.take(u64::from(n)).read_to_end(buf)? < n as usize {
        return Err(cut_short());
    }
    Ok(Some(buf))
}

/// A frame's length prefix, checked against [`MAX_FRAME`]; `None` on a
/// clean end-of-stream.
fn read_prefix(r: &mut impl Read) -> io::Result<Option<u32>> {
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
    Ok(Some(n))
}

fn cut_short() -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, "frame cut short")
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

/// The values of the fields `keys` among the `key=value` words after a
/// line's verb, found in one pass. Every word must be one of them, once:
/// a word that is not `key=value`, a key the line does not define and a
/// repeated key — what a value with a space in it leaves — are refused
/// by name.
fn fields<'a, const N: usize>(
    line: &'a str,
    keys: [&str; N],
) -> Result<[Option<&'a str>; N], String> {
    let mut values = [None; N];
    for word in line.split_whitespace().skip(1) {
        let (key, value) =
            word.split_once('=').ok_or_else(|| format!("`{word}` is not a key=value field"))?;
        let at =
            keys.iter().position(|k| *k == key).ok_or_else(|| format!("unknown field `{key}`"))?;
        if values[at].replace(value).is_some() {
            return Err(format!("field `{key}` repeated"));
        }
    }
    Ok(values)
}

fn need<'a>(value: Option<&'a str>, key: &str) -> Result<&'a str, String> {
    value.ok_or_else(|| format!("missing field `{key}`"))
}

fn need_u64(value: Option<&str>, key: &str) -> Result<u64, String> {
    need(value, key)?.parse().map_err(|_| format!("field `{key}` is not an integer"))
}

/// The `job` field four verbs carry and nothing else.
fn job_field(line: &str) -> Result<u64, String> {
    let [job] = fields(line, ["job"])?;
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
                let [v, tenant, weight] = fields(head, ["v", "tenant", "weight"])?;
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
                    fields(head, ["backend", "policy", "seed", "deadline_us", "checkpoint"])?;
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
            "stats" => fields(head, []).map(|[]| Request::Stats),
            "shutdown" => fields(head, []).map(|[]| Request::Shutdown),
            other => Err(format!("unknown request `{other}`")),
        }
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

/// Reads eight lowercase hex digits, most significant first: their
/// value, and a word that is zero exactly when all eight bytes were such
/// digits (the value means nothing otherwise).
fn unhex8(digits: [u8; 8]) -> (u32, u64) {
    let x = u64::from_be_bytes(digits);
    // With bit 7 cleared, adding less than 0x80 to each byte carries
    // nowhere, and leaves bit 7 set where the byte reached a bound:
    // `b + (0x80 - lo)` where `b >= lo`, `b + (0x7f - hi)` where
    // `b > hi`.
    let low7 = x & bytes_of(0x7f);
    let digit = (low7 + bytes_of(0x80 - b'0')) & !(low7 + bytes_of(0x7f - b'9'));
    let letter = (low7 + bytes_of(0x80 - b'a')) & !(low7 + bytes_of(0x7f - b'f')) & bytes_of(0x80);
    let bad = (!(digit | letter) | x) & bytes_of(0x80);
    // A letter's low nibble is its value less 9.
    let x = (x & bytes_of(0x0f)) + (letter >> 7) * 9;
    let x = (x | x >> 4) & 0x00ff_00ff_00ff_00ff;
    let x = (x | x >> 8) & 0x0000_ffff_0000_ffff;
    ((x | x >> 16) as u32, bad)
}

/// The value of a token written the encoder's way: one space and
/// sixteen lowercase hex digits.
fn token_value(token: &[u8; TOKEN]) -> Result<f64, Fault> {
    let (hi, bad_hi) = unhex8(token[1..9].try_into().expect("eight of seventeen bytes"));
    let (lo, bad_lo) = unhex8(token[9..].try_into().expect("eight of seventeen bytes"));
    if token[0] == b' ' && bad_hi | bad_lo == 0 {
        return Ok(f64::from_bits(u64::from(hi) << 32 | u64::from(lo)));
    }
    // A line feed where a value should begin: the line held fewer.
    refused(if token[0] == b'\n' { "value count mismatch" } else { "malformed value bits" })
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

/// Bytes of the head of the `out` line a result writes for an op named
/// `name` with `values` values: the line feed that opens it, `out`, and
/// the name and the count behind one space each.
fn out_head_len(name: &str, values: usize) -> usize {
    let digits = values.checked_ilog10().map_or(1, |d| d as usize + 1);
    "\nout ".len() + name.len() + 1 + digits
}

/// Bytes of that whole line: its head and a [`TOKEN`] per value.
fn out_line_len(name: &str, values: usize) -> usize {
    TOKEN.saturating_mul(values).saturating_add(out_head_len(name, values))
}

/// More than any `ok-result` head line takes: four integers of at most
/// 20 digits and a wall time, an `f64` that `Display` writes in at most
/// 327 characters (a negative number just below the least normal one),
/// with their keys — 455 bytes.
pub(crate) const RESULT_HEAD_BOUND: usize = 512;

/// A bound on the payload of the result of a job whose ops, named and
/// sized as in `ops`, each hold one value per task: what `submit` holds
/// against [`MAX_FRAME`], so that a result the frame could not carry is
/// refused before it is computed.
pub(crate) fn result_bound<'a>(ops: impl IntoIterator<Item = (&'a str, usize)>) -> usize {
    ops.into_iter().fold(RESULT_HEAD_BOUND, |len, (name, values)| {
        len.saturating_add(out_line_len(name, values))
    })
}

fn write_result_head(r: &WireResult, out: &mut Vec<u8>) -> io::Result<()> {
    write!(
        out,
        "ok-result job={} wall_us={} attempts={} resumed={} outs={}",
        r.job,
        r.wall_us,
        r.attempts,
        r.resumed_tasks,
        r.outputs.len()
    )
}

/// Writes the `out` lines of `outputs` behind what `buf` holds — the one
/// encoder of a result's values. Given a transport `to`, `buf` is
/// written to it and emptied whenever the next piece would take it past
/// [`CHUNK`] bytes, and once more at the end; without one, `buf` ends
/// holding every line.
fn write_outputs<W: Write>(
    outputs: &[WireOutput],
    buf: &mut Vec<u8>,
    mut to: Option<&mut W>,
) -> io::Result<()> {
    let limit = if to.is_some() { CHUNK } else { usize::MAX };
    let mut spill = |buf: &mut Vec<u8>| match to.as_deref_mut() {
        Some(w) => {
            w.write_all(buf)?;
            buf.clear();
            Ok(())
        }
        None => Ok(()),
    };
    for o in outputs {
        if buf.len() + out_head_len(&o.name, o.values.len()) > limit {
            spill(buf)?;
        }
        write!(buf, "\nout {} {}", o.name, o.values.len())?;
        let mut values = &o.values[..];
        while !values.is_empty() {
            let fit = limit.saturating_sub(buf.len()) / TOKEN;
            if fit == 0 {
                spill(buf)?;
                continue;
            }
            let (now, rest) = values.split_at(fit.min(values.len()));
            write_values(buf, now);
            values = rest;
        }
    }
    spill(buf)
}

/// Why a response was not read: the transport failed, or the frame does
/// not decode, for a one-line reason.
enum Fault {
    Io(io::Error),
    Refused(String),
}

impl From<io::Error> for Fault {
    fn from(e: io::Error) -> Self {
        Fault::Io(e)
    }
}

impl From<String> for Fault {
    fn from(reason: String) -> Self {
        Fault::Refused(reason)
    }
}

#[cold]
fn refused<T>(reason: &str) -> Result<T, Fault> {
    Err(Fault::Refused(reason.to_string()))
}

/// The payload's next buffered bytes: empty at its end, or where the
/// stream ended first (which [`read_response`] tells apart).
fn fill(src: &mut io::Take<impl BufRead>) -> io::Result<&[u8]> {
    while let Err(e) = src.fill_buf() {
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    src.fill_buf()
}

/// Fills `to` from the payload, or refuses the frame for `reason` where
/// it ends first.
fn read_exact(src: &mut io::Take<impl BufRead>, to: &mut [u8], reason: &str) -> Result<(), Fault> {
    match src.read_exact(to) {
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => refused(reason),
        read => Ok(read?),
    }
}

/// Reads `bytes` exactly, or refuses the frame for `reason`.
fn expect(src: &mut io::Take<impl BufRead>, bytes: &[u8], reason: &str) -> Result<(), Fault> {
    let mut got = [0; 5];
    let got = &mut got[..bytes.len()];
    read_exact(src, got, reason)?;
    if got != bytes {
        return refused(reason);
    }
    Ok(())
}

/// Appends to `word` the payload's bytes up to the first of `stops`, or
/// to its end; the stop is left unread.
fn read_word(src: &mut io::Take<impl BufRead>, word: &mut Vec<u8>, stops: &[u8]) -> io::Result<()> {
    loop {
        let buf = fill(src)?;
        let found = buf.iter().position(|b| stops.contains(b));
        let take = found.unwrap_or(buf.len());
        word.extend_from_slice(&buf[..take]);
        src.consume(take);
        if found.is_some() || take == 0 {
            return Ok(());
        }
    }
}

/// Reads `n` value tokens into `values`, which is given room for `n`,
/// or for as many as the payload's unread bytes could hold if fewer.
/// Tokens are read where they lie in the source's buffer; one that
/// straddles two reads is completed in a `TOKEN`-byte array.
fn read_values(
    src: &mut io::Take<impl BufRead>,
    n: usize,
    values: &mut Vec<f64>,
) -> Result<(), Fault> {
    let room = usize::try_from(src.limit() / TOKEN as u64).unwrap_or(usize::MAX);
    values.reserve_exact(n.min(room));
    let mut left = n;
    while left > 0 {
        let (tokens, _) = fill(src)?.as_chunks::<TOKEN>();
        let took = tokens.len().min(left);
        for token in &tokens[..took] {
            values.push(token_value(token)?);
        }
        src.consume(took * TOKEN);
        if took == 0 {
            let mut token = [0; TOKEN];
            read_exact(src, &mut token, "value count mismatch")?;
            values.push(token_value(&token)?);
        }
        left -= took.max(1);
    }
    Ok(())
}

/// Reads one `out` line — `\nout <name> <n>` and `n` value tokens —
/// with `head` to gather the name and the count in.
fn read_output(src: &mut io::Take<impl BufRead>, head: &mut Vec<u8>) -> Result<WireOutput, Fault> {
    if fill(src)?.is_empty() {
        return refused("output count mismatch");
    }
    expect(src, b"\nout ", "malformed result body")?;
    head.clear();
    read_word(src, head, b" \n")?;
    let name_len = head.len();
    expect(src, b" ", "missing value count")?;
    read_word(src, head, b" \n")?;
    let (name, n) = head.split_at(name_len);
    let name = utf8(name)?;
    if name.is_empty() || name.contains(char::is_whitespace) {
        return refused("malformed op name");
    }
    // Decimal digits, with no sign and no leading zero.
    let digits = str::from_utf8(n).ok().filter(|_| matches!(n, [b'1'..=b'9', ..] | [b'0']));
    let Some(n) = digits.and_then(|n| n.parse().ok()) else {
        return refused("malformed value count");
    };
    let mut values = Vec::new();
    read_values(src, n, &mut values)?;
    if !matches!(fill(src)?.first(), None | Some(b'\n')) {
        return refused("line runs past its value count");
    }
    Ok(WireOutput { name: name.to_string(), values })
}

/// A read's outcome as [`read_response`] reports it.
fn outcome(read: Result<Response, Fault>) -> io::Result<Result<Response, String>> {
    match read {
        Ok(response) => Ok(Ok(response)),
        Err(Fault::Refused(reason)) => Ok(Err(reason)),
        Err(Fault::Io(e)) => Err(e),
    }
}

/// Reads one response frame from `r`, decoding it as it arrives. A
/// result's values go from `r`'s buffer straight into each output's
/// `Vec<f64>`; `buf`, which the caller keeps from frame to frame, holds
/// only a line head, or a response other than a result, whole. Returns
/// `Ok(None)` on a clean end-of-stream (the peer closed between
/// frames), and the decoder's one-line reason for a frame that does not
/// decode — read to its end all the same, so that the next frame is
/// read from its start.
///
/// # Errors
///
/// Propagates transport errors; an oversized length is
/// [`io::ErrorKind::InvalidData`], a stream that ends inside a frame
/// [`io::ErrorKind::UnexpectedEof`].
pub fn read_response(
    r: &mut impl BufRead,
    buf: &mut Vec<u8>,
) -> io::Result<Option<Result<Response, String>>> {
    let Some(len) = read_prefix(r)? else {
        return Ok(None);
    };
    let mut payload = r.take(u64::from(len));
    let response = outcome(Response::read(&mut payload, buf))?;
    io::copy(&mut payload, &mut io::sink())?;
    if payload.limit() > 0 {
        return Err(cut_short());
    }
    Ok(Some(response))
}

impl Response {
    fn write_payload(&self, out: &mut Vec<u8>) -> io::Result<()> {
        match self {
            Response::Hello { session, workers } => {
                write!(out, "ok-hello session={session} workers={workers}")
            }
            Response::Submitted { job } => write!(out, "ok-submit job={job}"),
            Response::Result(r) => {
                write_result_head(r, out)?;
                write_outputs(&r.outputs, out, None::<&mut io::Sink>)
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

    /// Writes the response's frame to `to`, through `buf` (replacing
    /// what it held). A result goes out in pieces of at most [`CHUNK`]
    /// bytes, its length prefix worked out before the first: the head
    /// line's bytes and each `out` line's ([`out_line_len`]). Any other
    /// response is built whole and written by [`write_frame`].
    ///
    /// # Errors
    ///
    /// Propagates the transport's I/O errors; a frame over `MAX_FRAME`
    /// is [`io::ErrorKind::InvalidInput`], and nothing is written.
    pub(crate) fn write_to(&self, to: &mut impl Write, buf: &mut Vec<u8>) -> io::Result<()> {
        let Response::Result(r) = self else {
            self.encode_into(buf);
            return write_frame(to, buf);
        };
        buf.clear();
        // All the buffer will hold, so that growing does not double it.
        buf.reserve_exact(CHUNK);
        buf.extend_from_slice(&[0; PREFIX]);
        write_result_head(r, buf)?;
        let len = r.outputs.iter().fold(buf.len() - PREFIX, |len, o| {
            len.saturating_add(out_line_len(&o.name, o.values.len()))
        });
        let len = u32::try_from(len)
            .ok()
            .filter(|&len| len <= MAX_FRAME)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
        buf[..PREFIX].copy_from_slice(&len.to_le_bytes());
        write_outputs(&r.outputs, buf, Some(to))
    }

    /// Decodes a frame payload, with the reader [`read_response`] runs
    /// over a socket.
    ///
    /// # Errors
    ///
    /// Returns a one-line reason when the payload is not a valid
    /// response frame.
    pub(crate) fn decode_bytes(payload: &[u8]) -> Result<Response, String> {
        let mut src = payload.take(payload.len() as u64);
        outcome(Response::read(&mut src, &mut Vec::new())).unwrap_or_else(|e| Err(e.to_string()))
    }

    /// The response decoder. The head line is read into `buf`; a result's
    /// `out` lines are read as their bytes arrive, any other response
    /// whole into `buf` behind its head.
    fn read(src: &mut io::Take<impl BufRead>, buf: &mut Vec<u8>) -> Result<Response, Fault> {
        buf.clear();
        read_word(src, buf, b"\n")?;
        let head = utf8(buf)?;
        if head.split_whitespace().next() != Some("ok-result") {
            src.read_to_end(buf)?;
            return Ok(Response::decode_whole(buf)?);
        }
        let [job, wall_us, attempts, resumed, outs] =
            fields(head, ["job", "wall_us", "attempts", "resumed", "outs"])?;
        let mut result = WireResult {
            job: need_u64(job, "job")?,
            wall_us: need(wall_us, "wall_us")?.parse().map_err(|_| "bad wall_us".to_string())?,
            attempts: need_u64(attempts, "attempts")? as usize,
            resumed_tasks: need_u64(resumed, "resumed")? as usize,
            outputs: Vec::new(),
        };
        for _ in 0..need_u64(outs, "outs")? {
            result.outputs.push(read_output(src, buf)?);
        }
        if !fill(src)?.is_empty() {
            return refused("output count mismatch");
        }
        Ok(Response::Result(result))
    }

    /// Decodes a whole payload that is not a result.
    fn decode_whole(payload: &[u8]) -> Result<Response, String> {
        let text = utf8(payload)?;
        let (head, body) = text.split_once('\n').unwrap_or((text, ""));
        let head = head.strip_suffix('\r').unwrap_or(head);
        match head.split_whitespace().next().unwrap_or("") {
            "ok-hello" => {
                let [session, workers] = fields(head, ["session", "workers"])?;
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
                        fields(line, ["id", "tenant", "state", "grant"])?;
                    jobs.push(JobRow {
                        job: need_u64(id, "id")?,
                        tenant: need(tenant, "tenant")?.to_string(),
                        state: need(state, "state")?.to_string(),
                        grant: need_u64(grant, "grant")? as usize,
                    });
                }
                let [workers, count] = fields(head, ["workers", "jobs"])?;
                if need_u64(count, "jobs")? != jobs.len() as u64 {
                    return Err("job count mismatch".to_string());
                }
                Ok(Response::Stats { workers: need_u64(workers, "workers")? as usize, jobs })
            }
            "ok-drained" => fields(head, []).map(|[]| Response::Drained),
            "err" => Ok(Response::Err { msg: head.strip_prefix("err ").unwrap_or("").to_string() }),
            other => Err(format!("unknown response `{other}`")),
        }
    }

    /// `decode_bytes` of a payload held as text.
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

    /// The value reader on `n` tokens at the head of `bytes`, with no
    /// frame around them: the values it read, what it made of them, and
    /// the bytes it left unread.
    fn line_values(bytes: &[u8], n: usize) -> (Vec<f64>, Result<(), String>, &[u8]) {
        let mut src = bytes.take(bytes.len() as u64);
        let mut values = Vec::new();
        let read = match read_values(&mut src, n, &mut values) {
            Ok(()) => Ok(()),
            Err(Fault::Refused(reason)) => Err(reason),
            Err(Fault::Io(e)) => panic!("a slice does not fail: {e}"),
        };
        let left = src.limit() as usize;
        (values, read, &bytes[bytes.len() - left..])
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

    fn bit_patterns(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// A result payload declaring `outs` outputs, with `body` behind its
    /// head line.
    fn result_frame(outs: usize, body: &str) -> String {
        format!("ok-result job=1 wall_us=2 attempts=1 resumed=0 outs={outs}\n{body}")
    }

    /// What the reader once accepted beside the encoder's form, and the
    /// encoder's form miscounted: a result's output count, body, and the
    /// reason it is refused.
    const REFUSED: [(usize, &str, &str); 27] = [
        (1, "out A 1\t3ff0000000000000", "malformed value count"),
        (1, "out A 1 \u{a0}3ff0000000000000", "malformed value bits"),
        (1, "out A 1\u{3000}3ff0000000000000", "malformed value count"),
        (1, "out A 1  3ff0000000000000", "malformed value bits"),
        (1, "out A  1 3ff0000000000000", "malformed value count"),
        (1, "out  A 1 3ff0000000000000", "malformed op name"),
        (1, "out A\t1 3ff0000000000000", "malformed op name"),
        (1, "out\tA 1 3ff0000000000000", "malformed result body"),
        (1, " out A 1 3ff0000000000000", "malformed result body"),
        (1, "\u{a0}out A 1 3ff0000000000000", "malformed result body"),
        (1, "out A 1 3FF0000000000000", "malformed value bits"),
        (1, "out A 1 3ff", "value count mismatch"),
        (1, "out A 2 3ff 3ff0000000000000", "malformed value bits"),
        (1, "out A 1 3ff00000000000000", "line runs past its value count"),
        (1, "out A 1 +3ff000000000000", "malformed value bits"),
        (1, "out A 1 3ff0000000000000 ", "line runs past its value count"),
        (1, "out A 1 3ff0000000000000\r", "line runs past its value count"),
        (1, "out A +1 3ff0000000000000", "malformed value count"),
        (1, "out A 01 3ff0000000000000", "malformed value count"),
        (1, "out A 2 3ff0000000000000", "value count mismatch"),
        (1, "out A 0 3ff0000000000000", "line runs past its value count"),
        (1, "out A 0\n", "output count mismatch"),
        (1, "out A", "missing value count"),
        (2, "out A 1 3ff0000000000000\r\nout B 0", "line runs past its value count"),
        (2, "out A 0\r\nout B 0", "malformed value count"),
        (2, "out A 0\n\nout B 0", "malformed result body"),
        (2, "out A 1\nout B 0", "value count mismatch"),
    ];

    #[test]
    fn every_form_but_the_encoders_is_refused_with_its_reason() {
        let canonical = result_frame(2, "out A 1 3ff0000000000000\nout B 0");
        let Ok(Response::Result(r)) = Response::decode(&canonical) else { panic!("decodes") };
        assert_eq!((r.outputs[0].values.as_slice(), r.outputs[1].name.as_str()), (&[1.0][..], "B"));
        for (outs, body, reason) in REFUSED {
            let frame = result_frame(outs, body);
            assert_eq!(Response::decode(&frame), Err(reason.to_string()), "{frame:?}");
        }
        for (outs, body) in [(2, "out A 0"), (1, "out A 0\nout B 0"), (0, "out A 0")] {
            let frame = result_frame(outs, body);
            assert_eq!(Response::decode(&frame), Err("output count mismatch".into()), "{frame:?}");
        }
    }

    #[test]
    fn a_refused_result_leaves_the_next_frame_whole() {
        use std::os::unix::net::UnixStream;
        let (mut tx, rx) = UnixStream::pair().unwrap();
        std::thread::scope(|s| {
            s.spawn(move || {
                for (outs, body, _) in REFUSED {
                    write_frame(&mut tx, &frame_of(result_frame(outs, body).as_bytes())).unwrap();
                    write_frame(&mut tx, &frame_of(b"ok-submit job=9")).unwrap();
                }
            });
            let (mut reader, mut buf) = (BufReader::new(rx), Vec::new());
            for (_, body, reason) in REFUSED {
                let refused = read_response(&mut reader, &mut buf).unwrap();
                assert_eq!(refused, Some(Err(reason.to_string())), "{body:?}");
                let next = read_response(&mut reader, &mut buf).unwrap();
                assert_eq!(next, Some(Ok(Response::Submitted { job: 9 })), "after {body:?}");
            }
            assert_eq!(read_response(&mut reader, &mut buf).unwrap(), None, "clean EOF");
        });
    }

    #[test]
    fn a_declared_count_does_not_size_the_allocation() {
        // 2^32 values declared, one present: refused, and the buffer was
        // sized by the bytes present, not by the claim.
        let (values, read, _) = line_values(b" 3ff0000000000000", 1 << 32);
        assert_eq!(read, Err("value count mismatch".to_string()));
        assert_eq!((values.as_slice(), values.capacity()), (&[1.0][..], 1));
        let frame = result_frame(1, "out A 4294967296 3ff0000000000000");
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

    /// Hands out at most `step` bytes per `read`.
    struct Trickle<'a> {
        data: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.step.min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    /// How many bytes a read hands the response reader: around a
    /// token's length, a page, and all there is.
    const STEPS: [usize; 7] = [1, 7, 16, 17, 18, 4096, usize::MAX];

    /// A decoded response with every `f64` as its bit pattern, so that
    /// NaN payloads compare too.
    type Bits = (u64, u64, usize, usize, Vec<(String, Vec<u64>)>);

    fn bitwise(decoded: Result<Response, String>) -> Result<Bits, String> {
        match decoded? {
            Response::Result(r) => Ok((
                r.job,
                r.wall_us.to_bits(),
                r.attempts,
                r.resumed_tasks,
                r.outputs
                    .into_iter()
                    .map(|o| (o.name, o.values.into_iter().map(f64::to_bits).collect()))
                    .collect(),
            )),
            other => Err(format!("not a result: {other:?}")),
        }
    }

    /// `payload` as [`read_response`] reads it from a stream, `step`
    /// bytes per read, with a frame behind it that must still be read
    /// from its start: the response, and what the line buffer grew to.
    fn read_streamed(payload: &[u8], step: usize) -> (Result<Response, String>, usize) {
        let mut wire = frame_of(payload);
        wire.extend(frame_of(b"ok-drained"));
        let mut reader = BufReader::with_capacity(CHUNK, Trickle { data: &wire, step });
        let mut buf = Vec::new();
        let got = read_response(&mut reader, &mut buf).expect("read").expect("a frame");
        let next = read_response(&mut reader, &mut buf).expect("read");
        assert_eq!(next, Some(Ok(Response::Drained)), "the next frame is read from its start");
        assert_eq!(read_response(&mut reader, &mut buf).expect("read"), None, "clean EOF");
        (got, buf.capacity())
    }

    /// `n` values from `seed`, NaN payloads, infinities, −0.0 and
    /// subnormals of both signs among them.
    fn special_values(n: usize, seed: u64) -> Vec<f64> {
        let mut x = seed | 1;
        let values = (0..n).map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            f64::from_bits(match x % 8 {
                0 => (-0.0f64).to_bits(),
                1 => x >> 12,
                2 => 1 << 63 | x >> 12,
                3 => 0x7ff0_0000_0000_0000 | x >> 12,
                4 => 0xfff8_0000_0000_0000 | x >> 13,
                _ => x,
            })
        });
        values.collect()
    }

    /// Op names of a few lengths, one not ASCII.
    const NAMES: [&str; 4] = ["A", "C0", "\u{e9}t\u{e9}", "a_rather_longer_op_name.7"];

    /// Mostly a few values, often a wide job's many.
    fn value_count() -> impl proptest::strategy::Strategy<Value = usize> {
        proptest::prop_oneof![0..40usize, 0..40_000usize]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The streamed writer makes the bytes `encode` makes, behind the
        /// length it worked out first, in writes of at most `CHUNK` bytes
        /// from a buffer that holds no more; the streamed reader reads
        /// them back bit for bit, however the reads fall, holding no more
        /// than a line head.
        #[test]
        fn a_streamed_result_is_the_whole_frame_codec_piece_by_piece(
            outputs in proptest::collection::vec(
                (0..NAMES.len(), value_count(), proptest::prelude::any::<u64>()),
                0..4,
            ),
            wall_us in proptest::prelude::any::<u64>(),
            step in 0..STEPS.len(),
        ) {
            let result = WireResult {
                job: wall_us >> 7,
                wall_us: f64::from_bits(wall_us),
                attempts: 1 + (wall_us % 3) as usize,
                resumed_tasks: (wall_us % 1000) as usize,
                outputs: outputs
                    .iter()
                    .map(|&(name, n, seed)| WireOutput {
                        name: NAMES[name].to_string(),
                        values: special_values(n, seed),
                    })
                    .collect(),
            };
            let resp = Response::Result(result.clone());
            let whole = frame_of(resp.encode().as_bytes());

            let (mut wire, mut buf, mut largest) = (Vec::new(), Vec::new(), 0);
            let mut to = WriteSizes { inner: &mut wire, largest: &mut largest };
            resp.write_to(&mut to, &mut buf).expect("written");
            proptest::prop_assert!(wire == whole, "the streamed frame is the whole frame");
            proptest::prop_assert!(largest <= CHUNK, "a write of {largest} bytes");
            proptest::prop_assert!(buf.capacity() <= CHUNK, "a {} byte buffer", buf.capacity());

            let sizes = result.outputs.iter().map(|o| (o.name.as_str(), o.values.len()));
            let bound = result_bound(sizes);
            let payload = whole.len() - PREFIX;
            proptest::prop_assert!((payload..=payload + RESULT_HEAD_BOUND).contains(&bound));

            let (got, held) = read_streamed(&whole[PREFIX..], STEPS[step]);
            proptest::prop_assert_eq!(bitwise(got), bitwise(Ok(resp)));
            // A head line, its wall time written from arbitrary bits.
            proptest::prop_assert!(held <= 2 * RESULT_HEAD_BOUND, "a {held} byte line buffer");
        }
    }

    /// Records the largest single write.
    struct WriteSizes<'a, W> {
        inner: &'a mut W,
        largest: &'a mut usize,
    }

    impl<W: Write> Write for WriteSizes<'_, W> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            *self.largest = (*self.largest).max(buf.len());
            self.inner.write(buf)
        }

        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
    }

    /// A payload's bytes from the line feed that ends its head line.
    fn body_of(payload: &[u8]) -> &[u8] {
        &payload[payload.iter().position(|&b| b == b'\n').unwrap_or(payload.len())..]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// Result payloads as the encoder writes them, whole, with one
        /// byte changed (to any byte, or to one the old reader took for
        /// a separator, a digit or a sign) or with their tail cut, decode
        /// the same from a stream, however its reads fall, as from a
        /// slice. Whole, they decode to what was written; changed or cut,
        /// a body is accepted only where it is what the encoder writes
        /// of what it decoded to.
        #[test]
        fn a_result_decodes_alike_whatever_the_reads(
            outputs in proptest::collection::vec(
                (0..NAMES.len(), value_count(), proptest::prelude::any::<u64>()),
                0..4,
            ),
            damage in (proptest::prelude::any::<u64>(), 0..256usize, 0..4usize),
            step in 0..STEPS.len(),
        ) {
            let resp = Response::Result(WireResult {
                job: 1,
                wall_us: 2.0,
                attempts: 1,
                resumed_tasks: 0,
                outputs: outputs
                    .iter()
                    .map(|&(name, n, seed)| WireOutput {
                        name: NAMES[name].to_string(),
                        values: special_values(n, seed),
                    })
                    .collect(),
            });
            let mut payload = resp.encode().into_bytes();
            let (at, byte, how) = damage;
            let at = at as usize % payload.len();
            match how {
                0 => {}
                1 => payload[at] = byte as u8,
                2 => payload[at] = b" \t\r\n0aA+"[byte % 8],
                _ => payload.truncate(at),
            }

            let decoded = Response::decode_bytes(&payload);
            let (streamed, _) = read_streamed(&payload, STEPS[step]);
            proptest::prop_assert_eq!(bitwise(streamed), bitwise(decoded.clone()));
            if how == 0 {
                proptest::prop_assert_eq!(bitwise(decoded.clone()), bitwise(Ok(resp)));
            }
            if let Ok(decoded) = decoded {
                let written = decoded.encode();
                proptest::prop_assert!(body_of(written.as_bytes()) == body_of(&payload));
            }
        }
    }

    #[test]
    fn no_head_line_passes_the_bound() {
        let extreme = WireResult {
            job: u64::MAX,
            wall_us: -8.773_496_003_510_878e-309,
            attempts: usize::MAX,
            resumed_tasks: usize::MAX,
            outputs: vec![],
        };
        let mut head = Vec::new();
        write_result_head(&extreme, &mut head).unwrap();
        // `outs=0` here: 19 digits short of its widest.
        assert_eq!(head.len() + 19, 455);
        const { assert!(455 <= RESULT_HEAD_BOUND) };
    }

    #[test]
    fn a_result_over_the_cap_is_refused_before_a_byte_is_written() {
        // 17 bytes a value: a million of them pass 16 MiB.
        let resp = result_of(vec![0.0; 1_000_000]);
        let (mut wire, mut buf) = (Vec::new(), Vec::new());
        let err = resp.write_to(&mut wire, &mut buf).unwrap_err();
        assert_eq!((err.kind(), wire.len()), (io::ErrorKind::InvalidInput, 0));
        let huge = (MAX_FRAME + 1).to_le_bytes();
        let mut reader = BufReader::new(&huge[..]);
        let err = read_response(&mut reader, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "oversized length prefix");
        let mut torn = frame_of(b"ok-result job=1 wall_us=2 attempts=1 resumed=0 outs=0");
        torn.pop();
        let err = read_response(&mut BufReader::new(&torn[..]), &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "a frame cut short");
    }

    #[test]
    fn a_result_is_one_write_and_one_read_per_64_kib() {
        // A small job's result, 8 KiB; a wide job's in `serve_mix`,
        // 28 672 values in 476 KiB.
        for (values, calls) in [(477, 1), (28_672, 8)] {
            let resp = result_of((0..values).map(f64::from).collect());
            let mut wire = Counted { inner: Vec::new(), calls: 0 };
            resp.write_to(&mut wire, &mut Vec::new()).unwrap();
            assert_eq!(wire.calls, calls, "{values} values: writes, no flush");

            let mut reader =
                BufReader::with_capacity(CHUNK, Counted { inner: &wire.inner[..], calls: 0 });
            let got = read_response(&mut reader, &mut Vec::new()).unwrap().expect("a frame");
            assert_eq!(got, Ok(resp));
            assert_eq!(reader.get_ref().calls, calls, "{values} values: reads");
        }
    }

    #[test]
    fn a_wide_result_streams_across_a_socket_through_fixed_buffers() {
        use std::os::unix::net::UnixStream;
        // 2 MiB of values, far more than a socket buffer holds.
        let wide = result_of(special_values((2 << 20) / TOKEN, 0x9e37_79b9_7f4a_7c15));
        let small = Response::Submitted { job: 9 };
        let (mut tx, rx) = UnixStream::pair().unwrap();
        std::thread::scope(|s| {
            let writer = s.spawn(|| {
                let mut buf = Vec::new();
                for resp in [&wide, &small, &wide] {
                    resp.write_to(&mut tx, &mut buf).unwrap();
                }
                buf.capacity()
            });
            let (mut reader, mut carry) = (BufReader::with_capacity(CHUNK, rx), Vec::new());
            for resp in [&wide, &small, &wide] {
                let got = read_response(&mut reader, &mut carry).unwrap().expect("a frame");
                assert!(
                    bitwise(got) == bitwise(Ok(resp.clone())),
                    "the values crossed bit for bit"
                );
            }
            assert!(carry.capacity() <= 128, "the carry grew to {} bytes", carry.capacity());
            assert_eq!(writer.join().unwrap(), CHUNK, "the writer's buffer");
        });
    }

    #[test]
    fn every_byte_at_every_position_of_a_token_is_accepted_exactly_as_lowercase_hex() {
        let one = f64::from_bits(1);
        for base in [" 0123456789abcdef", " fedcba9876543210", " ffffffffffffffff"] {
            for at in 0..TOKEN {
                for byte in 0..=255u8 {
                    let mut token: [u8; TOKEN] = base.as_bytes().try_into().unwrap();
                    token[at] = byte;
                    let lowercase_hex = token[0] == b' '
                        && token[1..].iter().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
                    let expected = lowercase_hex.then(|| {
                        let digits = str::from_utf8(&token[1..]).unwrap();
                        f64::from_bits(u64::from_str_radix(digits, 16).unwrap())
                    });
                    let context = format!("byte {byte:#04x} at {at} of {base:?}");
                    let got = token_value(&token).ok();
                    assert_eq!(got.map(f64::to_bits), expected.map(f64::to_bits), "{context}");

                    // The frame reader around it, the token first, last
                    // and alone on its line.
                    for (line, values) in [
                        (token.to_vec(), expected.map(|v| vec![v])),
                        (
                            [&token[..], b" 0000000000000001"].concat(),
                            expected.map(|v| vec![v, one]),
                        ),
                        (
                            [b" 0000000000000001", &token[..]].concat(),
                            expected.map(|v| vec![one, v]),
                        ),
                    ] {
                        let n = line.len() / TOKEN;
                        let frame =
                            [result_frame(1, &format!("out A {n}")).as_bytes(), &line].concat();
                        let got =
                            bitwise(Response::decode_bytes(&frame)).ok().map(|r| r.4[0].1.clone());
                        assert_eq!(got, values.map(|v| bit_patterns(&v)), "{context}");
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
        let (read, ok, after) = line_values(&out[4..], values.len());
        assert_eq!((ok, after), (Ok(()), &b""[..]));
        assert_eq!(bit_patterns(&read), patterns);
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
                    proptest::prop_assert!(held <= got.len() / TOKEN, "{held} values held");
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
        assert_eq!(Request::decode("wait job=1 now"), Err("`now` is not a key=value field".into()));
    }

    #[test]
    fn a_space_in_a_checkpoint_path_is_refused_not_cut() {
        let submit = Request::Submit {
            opts: JobOptions { checkpoint_dir: Some("/tmp/a b".into()), ..JobOptions::default() },
            graph: "delirium g\nnode A task cost=1\nend\n".into(),
        };
        assert_eq!(Request::decode(&submit.encode()), Err("`b` is not a key=value field".into()));
    }

    #[test]
    fn a_field_the_line_does_not_define_or_repeats_is_refused() {
        let submit = |dir: &str| Request::Submit {
            opts: JobOptions { checkpoint_dir: Some(dir.into()), ..JobOptions::default() },
            graph: "delirium g\nnode A task cost=1\nend\n".into(),
        };
        assert_eq!(
            Request::decode(&submit("/tmp/a b=c").encode()),
            Err("unknown field `b`".into())
        );
        let twice = submit("/tmp/a checkpoint=/tmp/b").encode();
        assert_eq!(Request::decode(&twice), Err("field `checkpoint` repeated".into()));
        assert_eq!(Request::decode("wait job=1 job=2"), Err("field `job` repeated".into()));
        assert_eq!(Request::decode("stats all=1"), Err("unknown field `all`".into()));
        assert_eq!(Request::decode("shutdown now=1"), Err("unknown field `now`".into()));
        assert_eq!(Response::decode("ok-submit job=1 at=2"), Err("unknown field `at`".into()));
        assert_eq!(Response::decode("ok-drained x=1"), Err("unknown field `x`".into()));
        let result = "ok-result job=1 wall_us=2 attempts=1 resumed=0 outs=0 outs=0";
        assert_eq!(Response::decode(result), Err("field `outs` repeated".into()));
        // A stats reply's head counts its rows, and each row holds its
        // four fields only.
        let row = "\njob id=1 tenant=a state=done grant=0";
        assert_eq!(
            Response::decode(&format!("ok-stats workers=1 jobs=2{row}")),
            Err("job count mismatch".into())
        );
        assert_eq!(
            Response::decode(&format!("ok-stats workers=1 jobs=1{row} late=1")),
            Err("unknown field `late`".into())
        );
        // What every encoder writes, its decoder defines.
        round_trip_resp(Response::Stats { workers: 2, jobs: Vec::new() });
        round_trip_resp(Response::Stats {
            workers: 8,
            jobs: (0..3)
                .map(|job| JobRow { job, tenant: "t".into(), state: "done".into(), grant: 1 })
                .collect(),
        });
        round_trip_req(Request::Submit { opts: JobOptions::default(), graph: String::new() });
    }
}
