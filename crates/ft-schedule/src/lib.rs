//! # ft-schedule — dependence-aware schedule transformations
//!
//! The complete transformation set of the FreeTensor paper's Table 1,
//! exposed as methods on [`Schedule`]:
//!
//! | group | primitives |
//! |---|---|
//! | loop | `split`, `merge`, `reorder`, `fission`, `fuse`, `swap` |
//! | parallelizing | `parallelize`, `unroll`, `blend`, `vectorize` |
//! | memory hierarchy | `cache`, `cache_reduce`, `set_mtype` |
//! | memory layout | `var_split`, `var_reorder`, `var_merge` |
//! | others | `as_lib`, `separate_tail` |
//!
//! Every transformation that can change execution order first consults the
//! dependence engine (`ft-analysis`), so — exactly as the paper argues —
//! callers (including the auto-scheduler) can *aggressively try*
//! transformations without risking miscompilation: an illegal request fails
//! with a [`ScheduleError`] instead of silently producing wrong code.
//!
//! ```
//! use ft_ir::prelude::*;
//! use ft_schedule::Schedule;
//!
//! let f = Func::new("axpy")
//!     .param("x", [1024], DataType::F32, AccessType::Input)
//!     .param("y", [1024], DataType::F32, AccessType::InOut)
//!     .body(for_(
//!         "i",
//!         0,
//!         1024,
//!         store("y", [var("i")], load("y", [var("i")]) + load("x", [var("i")])),
//!     ));
//! let mut s = Schedule::new(f);
//! let (outer, _inner) = s.split("i", 128)?;
//! s.parallelize(outer, ParallelScope::OpenMp)?;
//! # Ok::<(), ft_schedule::ScheduleError>(())
//! ```

pub mod layout;
pub mod loops;
pub mod mem;
pub mod others;
pub mod parallel;
pub mod trace;
pub mod util;

use ft_analysis::FoundDep;
use ft_ir::find::Selector;
use ft_ir::{Func, Stmt, StmtId};
use ft_trace::{Decision, TraceSink, Verdict};
use std::fmt;

/// Errors raised by schedule primitives.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleError {
    /// The selector did not resolve to a statement.
    NotFound(String),
    /// The transformation would violate a dependence.
    Illegal(String),
    /// The program shape is outside what the primitive supports.
    Unsupported(String),
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::NotFound(s) => write!(f, "statement not found: {s}"),
            ScheduleError::Illegal(s) => write!(f, "illegal transformation: {s}"),
            ScheduleError::Unsupported(s) => write!(f, "unsupported transformation: {s}"),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// A function under transformation.
///
/// Methods mutate the wrapped [`Func`] in place (each is all-or-nothing:
/// on error the function is unchanged).
///
/// When a [`TraceSink`] is installed ([`Schedule::set_sink`]), every
/// primitive attempt — applied or rejected — is appended to the sink's
/// decision log, including the structured dependences
/// ([`ft_analysis::FoundDep`]) that caused a rejection. Without a sink, or
/// with one that keeps no event log, the bookkeeping reduces to a branch.
#[derive(Debug, Clone)]
pub struct Schedule {
    func: Func,
    sink: Option<TraceSink>,
    phase: Option<String>,
    /// Dependences captured by the legality check of the primitive currently
    /// executing; drained into its decision-log entry.
    pending_deps: Vec<FoundDep>,
}

impl Schedule {
    /// Start scheduling a function.
    pub fn new(func: Func) -> Schedule {
        Schedule {
            func,
            sink: None,
            phase: None,
            pending_deps: Vec::new(),
        }
    }

    /// Install (or remove) the decision-log sink.
    pub fn set_sink(&mut self, sink: Option<TraceSink>) {
        self.sink = sink;
    }

    /// The installed sink, if any.
    pub fn sink(&self) -> Option<&TraceSink> {
        self.sink.as_ref()
    }

    /// Label subsequent decisions as belonging to a named pass (used by the
    /// auto-scheduler so each entry records which `auto_*` pass tried it).
    pub fn set_phase(&mut self, phase: Option<String>) {
        self.phase = phase;
    }

    /// The current (transformed) function.
    pub fn func(&self) -> &Func {
        &self.func
    }

    /// Consume the schedule, returning the transformed function.
    pub fn into_func(self) -> Func {
        self.func
    }

    /// Whether an installed sink keeps a decision log (callers can skip
    /// building argument strings when none does).
    pub(crate) fn tracing(&self) -> bool {
        self.sink.as_ref().is_some_and(TraceSink::logs)
    }

    /// Stash the dependences a legality check just reported, to be attached
    /// to the current primitive's decision-log entry.
    pub(crate) fn note_deps(&mut self, deps: &[FoundDep]) {
        if self.tracing() {
            self.pending_deps.extend_from_slice(deps);
        }
    }

    /// Append a decision-log entry for a finished primitive attempt. `args`
    /// is `None` when no sink was installed at call time.
    pub(crate) fn record<T>(
        &mut self,
        primitive: &str,
        args: Option<String>,
        result: &Result<T, ScheduleError>,
    ) {
        let deps = std::mem::take(&mut self.pending_deps);
        let Some(sink) = self.sink.as_ref().filter(|s| s.logs()) else {
            return;
        };
        let (verdict, reason) = match result {
            Ok(_) => (Verdict::Applied, None),
            Err(e) => (Verdict::Rejected, Some(e.to_string())),
        };
        sink.decision(Decision {
            pass: self.phase.clone(),
            primitive: primitive.to_string(),
            args: args.unwrap_or_default(),
            verdict,
            reason,
            deps,
            ts_us: sink.now_us(),
        });
    }

    pub(crate) fn func_mut(&mut self) -> &mut Func {
        &mut self.func
    }

    /// Replace the statement `id` of the function by `f` of it, in place.
    pub(crate) fn rewrite(
        &mut self,
        id: StmtId,
        f: impl FnOnce(Stmt) -> Stmt,
    ) -> Result<(), ScheduleError> {
        if util::replace_by_id(&mut self.func.body, id, f) {
            Ok(())
        } else {
            Err(ScheduleError::NotFound(format!("{id:?}")))
        }
    }

    /// Resolve a selector to a statement id.
    pub(crate) fn resolve(&self, sel: impl Into<Selector>) -> Result<StmtId, ScheduleError> {
        let sel = sel.into();
        sel.resolve(&self.func)
            .map(|s| s.id)
            .ok_or_else(|| ScheduleError::NotFound(format!("{sel:?}")))
    }

    /// Resolve a selector to the statement in place.
    pub(crate) fn resolve_ref(&self, sel: impl Into<Selector>) -> Result<&Stmt, ScheduleError> {
        let sel = sel.into();
        sel.resolve(&self.func)
            .ok_or_else(|| ScheduleError::NotFound(format!("{sel:?}")))
    }
}
