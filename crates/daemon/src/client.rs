//! A small blocking client for `orchestrad`.
//!
//! One [`Client`] is one session over one unix-socket connection:
//! connect with a tenant name and weight, then `submit` / `wait` /
//! `cancel` graphs. Requests on a connection are serialized (the
//! daemon answers them in order); concurrency comes from opening one
//! client per tenant or thread, which is exactly how a serving fleet
//! uses it.

use crate::wire::{
    read_frame, valid_tenant, write_frame, JobOptions, JobRow, Request, Response, WireResult,
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
    /// The stream, buffered for reading; requests are written straight
    /// to it.
    reader: BufReader<UnixStream>,
    /// The request and the response frame, one buffer each, reused from
    /// call to call.
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
            reader: BufReader::new(stream),
            outbox: Vec::new(),
            inbox: Vec::new(),
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
        let payload = read_frame(&mut self.reader, &mut self.inbox)?
            .ok_or_else(|| ClientError::Protocol("daemon hung up".to_string()))?;
        Response::decode_bytes(payload).map_err(ClientError::Protocol)
    }
}

fn unexpected(r: Response) -> ClientError {
    match r {
        Response::Err { msg } => ClientError::Remote(msg),
        other => ClientError::Protocol(format!("unexpected response {other:?}")),
    }
}
