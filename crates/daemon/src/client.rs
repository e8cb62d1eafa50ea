//! A small blocking client for `orchestrad`.
//!
//! One [`Client`] is one session over one unix-socket connection:
//! connect with a tenant name and weight, then `submit` / `wait` /
//! `cancel` graphs. Requests on a connection are serialized (the
//! daemon answers them in order); concurrency comes from opening one
//! client per tenant or thread, which is exactly how a serving fleet
//! uses it.

use crate::wire::{
    read_response, valid_tenant, write_frame, JobOptions, JobRow, Request, Response, WireResult,
    CHUNK, RESULT_HEAD_BOUND,
};
use orchestra_delirium::DelirGraph;
use std::fmt;
use std::io::{self, BufReader};
use std::os::unix::net::UnixStream;
use std::path::Path;

/// What a client call can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The daemon answered with an error (admission rejection, parse
    /// failure, cancelled/failed job, …).
    Remote(String),
    /// The daemon answered with a frame that doesn't fit the protocol.
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Remote(m) => write!(f, "daemon error: {m}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A connected session.
pub struct Client {
    /// The stream, read through a buffer of 64 KiB that a result's
    /// values are decoded from where they lie; requests are written
    /// straight to it.
    reader: BufReader<UnixStream>,
    /// The request frame, and the line head of a response being read
    /// (or a response other than a result, whole), one buffer each,
    /// reused from call to call. The inbox starts with room for any
    /// result's head line, so that reading a result grows it only for
    /// an op name of hundreds of bytes.
    outbox: Vec<u8>,
    inbox: Vec<u8>,
    session: u64,
    workers: usize,
}

impl Client {
    /// Connects and performs the `hello` handshake.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] on connection failure, [`ClientError::Remote`]
    /// when the daemon refuses the handshake.
    pub fn connect(socket: &Path, tenant: &str, weight: f64) -> Result<Client, ClientError> {
        if !valid_tenant(tenant) {
            return Err(ClientError::Protocol(format!("invalid tenant name `{tenant}`")));
        }
        let stream = UnixStream::connect(socket)?;
        let mut c = Client {
            reader: BufReader::with_capacity(CHUNK, stream),
            outbox: Vec::new(),
            inbox: Vec::with_capacity(RESULT_HEAD_BOUND),
            session: 0,
            workers: 0,
        };
        match c.call(&Request::Hello { tenant: tenant.to_string(), weight })? {
            Response::Hello { session, workers } => {
                c.session = session;
                c.workers = workers;
                Ok(c)
            }
            other => Err(unexpected(other)),
        }
    }

    /// This session's id.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Size of the daemon's shared worker pool.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Submits a graph; returns the job id to `wait`/`cancel` on.
    ///
    /// # Errors
    ///
    /// [`ClientError::Remote`] carries admission rejections and parse
    /// failures verbatim.
    pub fn submit(
        &mut self,
        graph: &DelirGraph,
        name: &str,
        opts: &JobOptions,
    ) -> Result<u64, ClientError> {
        let text = orchestra_delirium::text::print(graph, name);
        match self.call(&Request::Submit { opts: opts.clone(), graph: text })? {
            Response::Submitted { job } => Ok(job),
            other => Err(unexpected(other)),
        }
    }

    /// Blocks until the job finishes and returns its result. The
    /// daemon delivers a result once (see [`Request::Wait`]): keep what
    /// this returns.
    ///
    /// # Errors
    ///
    /// A cancelled job surfaces as [`ClientError::Remote`] with the
    /// runtime's `Cancelled`/`DeadlineExceeded` message, a second wait
    /// on a delivered job with "result already delivered".
    pub fn wait(&mut self, job: u64) -> Result<WireResult, ClientError> {
        match self.call(&Request::Wait { job })? {
            Response::Result(r) => Ok(r),
            other => Err(unexpected(other)),
        }
    }

    /// Requests cooperative cancellation of a job.
    ///
    /// # Errors
    ///
    /// [`ClientError::Remote`] when the job id is unknown.
    pub fn cancel(&mut self, job: u64) -> Result<(), ClientError> {
        match self.call(&Request::Cancel { job })? {
            Response::Cancelled { .. } => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Fetches the daemon's live job table (state + worker grants).
    ///
    /// # Errors
    ///
    /// Transport or protocol failures only.
    pub fn stats(&mut self) -> Result<(usize, Vec<JobRow>), ClientError> {
        match self.call(&Request::Stats)? {
            Response::Stats { workers, jobs } => Ok((workers, jobs)),
            other => Err(unexpected(other)),
        }
    }

    /// Asks the daemon to drain and shut down; returns once the drain
    /// completes.
    ///
    /// # Errors
    ///
    /// Transport or protocol failures only.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown)? {
            Response::Drained => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        req.encode_into(&mut self.outbox);
        write_frame(self.reader.get_mut(), &self.outbox)?;
        read_response(&mut self.reader, &mut self.inbox)?
            .ok_or_else(|| ClientError::Protocol("daemon hung up".to_string()))?
            .map_err(ClientError::Protocol)
    }
}

fn unexpected(r: Response) -> ClientError {
    match r {
        Response::Err { msg } => ClientError::Remote(msg),
        other => ClientError::Protocol(format!("unexpected response {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::read_frame;

    /// A result frame that does not decode is read to its end all the
    /// same: the client reports it, and the next call on the connection
    /// reads its own answer.
    #[test]
    fn a_bad_result_frame_does_not_desync_the_client() {
        let (ours, mut daemon) = UnixStream::pair().expect("socket pair");
        let mut client = Client {
            reader: BufReader::with_capacity(CHUNK, ours),
            outbox: Vec::new(),
            inbox: Vec::new(),
            session: 1,
            workers: 1,
        };
        // 40 000 values, the one in the middle not hex: far more bytes
        // than one read takes, before the fault and after it.
        let mut bad =
            String::from("ok-result job=1 wall_us=2 attempts=1 resumed=0 outs=1\nout A 40000");
        for i in 0..40_000 {
            bad += if i == 20_000 { " zzzzzzzzzzzzzzzz" } else { " 3ff0000000000000" };
        }
        let fake = std::thread::spawn(move || {
            let mut inbox = Vec::new();
            read_frame(&mut daemon, &mut inbox).expect("read").expect("the wait");
            let mut frame = u32::try_from(bad.len()).expect("under the cap").to_le_bytes().to_vec();
            frame.extend_from_slice(bad.as_bytes());
            write_frame(&mut daemon, &frame).expect("the bad result written");
            read_frame(&mut daemon, &mut inbox).expect("read").expect("the stats");
            Response::Stats { workers: 1, jobs: vec![] }.encode_into(&mut frame);
            write_frame(&mut daemon, &frame).expect("the stats written");
        });
        match client.wait(1) {
            Err(ClientError::Protocol(msg)) => assert_eq!(msg, "malformed value bits"),
            other => panic!("expected a protocol error, got {other:?}"),
        }
        assert_eq!(client.stats().expect("the next call is answered"), (1, vec![]));
        fake.join().expect("the fake daemon");
    }
}
