//! Cooperative cancellation for the real execution backends.
//!
//! A [`CancelToken`] is a shared flag a *caller* flips to abort a
//! running graph: every backend checks it at chunk-claim boundaries —
//! the same points where fault injection lands kills — so a cancelled
//! run never leaves a half-executed chunk behind and its workers exit
//! within one chunk of the request. An optional deadline in
//! [`ExecutorOptions`](crate::executor::ExecutorOptions) cancels the
//! run the same way once the wall clock passes it, which is how the
//! serving daemon evicts over-deadline tenants without a watchdog
//! thread.
//!
//! Cancellation is *cooperative and prompt*, not preemptive: a worker
//! mid-chunk finishes that chunk (chunks are bounded by the adaptive
//! policies, so the tail is short), then exits at the next claim. The
//! aborted run returns [`RunError::Cancelled`] (or
//! [`RunError::DeadlineExceeded`]) and the process is left clean — no
//! detached threads, no poisoned pool state — so the caller can
//! immediately execute another graph.

use orchestra_delirium::GraphError;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared cancellation flag, cloneable across threads. Cloned tokens
/// observe the same flag: cancelling any clone cancels the run the
/// token was submitted with.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; every backend observes the
    /// flag at its next chunk-claim boundary.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub(crate) fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// Why an execution did not produce a result.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The graph failed validation (see [`GraphError`]).
    Graph(GraphError),
    /// The caller's [`CancelToken`] fired; the run aborted at the next
    /// claim boundary and its partial outputs were discarded.
    Cancelled,
    /// The run outlived
    /// [`ExecutorOptions::deadline`](crate::ExecutorOptions::deadline)
    /// and was aborted at the next claim boundary.
    DeadlineExceeded,
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Graph(e) => write!(f, "{e}"),
            RunError::Cancelled => write!(f, "execution cancelled"),
            RunError::DeadlineExceeded => write!(f, "execution deadline exceeded"),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for RunError {
    fn from(e: GraphError) -> Self {
        RunError::Graph(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_flag() {
        let t = CancelToken::new();
        let c = t.clone();
        assert!(!t.is_cancelled());
        c.cancel();
        assert!(t.is_cancelled());
        t.cancel(); // idempotent
        assert!(c.is_cancelled());
    }

    #[test]
    fn run_error_wraps_graph_errors() {
        let e: RunError = GraphError::DuplicateName { name: "A".into() }.into();
        assert!(matches!(e, RunError::Graph(_)));
        assert_eq!(RunError::Cancelled.to_string(), "execution cancelled");
    }
}
