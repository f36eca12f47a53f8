//! The processor farm: persistent worker threads, typed mailboxes, and
//! addressing.
//!
//! [`WorkerPool`] plays the role of PVM's daemon: `ntasks` OS threads are
//! spawned once and then serve any number of *runs*. Each [`WorkerPool::run`]
//! hands every worker a task closure with a fresh [`TaskCtx`] — per-run
//! mailboxes — so tasks address each other by dense task id
//! through reliable, ordered, unbounded channels, exactly as before, but
//! without paying thread spawn/join per run. [`run_farm`] remains the
//! one-shot convenience (`pvm_spawn` + teardown) built on a throwaway pool.
//! By the convention of the paper's master/slave model, task 0 is the master
//! and tasks `1..P+1` are the slaves — the library itself imposes no roles.

use crate::channel::{unbounded, Receiver, RecvTimeoutError, SendError, Sender};
use crate::codec::{CodecError, Wire};
use std::cell::{Cell, RefCell};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Task address inside a farm (0-based, dense).
pub type TaskId = usize;

/// A received message: sender id, user tag, packed payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Sending task.
    pub from: TaskId,
    /// User-chosen message tag (protocol discriminator).
    pub tag: u32,
    /// Packed payload bytes.
    pub data: Vec<u8>,
}

impl Envelope {
    /// Decode the payload as a typed message.
    pub fn decode<T: Wire>(&self) -> Result<T, CodecError> {
        T::from_bytes(&self.data)
    }
}

/// Communication failures.
#[allow(missing_docs)] // field names are self-describing
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// The destination task has terminated (its mailbox is gone).
    PeerGone { to: TaskId },
    /// No message arrived within the timeout.
    Timeout,
    /// Every possible sender has terminated; no message can ever arrive.
    Disconnected,
    /// The message cannot be encoded for the transport's wire format
    /// (payload over the frame cap). The connection is untouched and
    /// still usable — this rejects the *message*, not the peer.
    Oversized { len: u64 },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::PeerGone { to } => write!(f, "task {to} has terminated"),
            CommError::Timeout => write!(f, "receive timed out"),
            CommError::Disconnected => write!(f, "all peers terminated"),
            CommError::Oversized { len } => {
                write!(f, "message of {len} bytes exceeds the transport frame cap")
            }
        }
    }
}

impl std::error::Error for CommError {}

/// Farm-level failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FarmError {
    /// A task panicked; the farm result is unusable.
    TaskPanicked {
        /// Lowest id among the panicked tasks.
        tid: TaskId,
        /// The panic payload of that task, stringified (`panic!` message, or
        /// a placeholder for non-string payloads).
        message: String,
    },
}

impl fmt::Display for FarmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FarmError::TaskPanicked { tid, message } => {
                write!(f, "task {tid} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for FarmError {}

/// Per-task outcome of a farm run (see [`WorkerPool::run_collect`]).
#[derive(Debug)]
pub enum TaskOutcome<R> {
    /// The task ran to completion.
    Done(R),
    /// The task panicked; the payload is its stringified panic message.
    Panicked(String),
}

impl<R> TaskOutcome<R> {
    /// The panic message, if the task panicked.
    pub fn panic_message(&self) -> Option<&str> {
        match self {
            TaskOutcome::Done(_) => None,
            TaskOutcome::Panicked(message) => Some(message),
        }
    }
}

/// What an injected fault does to its victim (see [`FaultPlan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic the task (a caught, task-level death: the pool thread
    /// survives, the task's peers observe a lost worker).
    Kill,
    /// Like [`Kill`](FaultAction::Kill), but permanent: every incarnation
    /// created by [`TaskCtx::respawn`] is re-armed to die on its first
    /// delivery, so resurrection can never succeed. Exists to exercise
    /// restart-budget exhaustion.
    KillRepeatedly,
    /// Sleep for the given duration before delivering the message,
    /// turning the task into a straggler.
    Delay(Duration),
}

/// A deterministic fault-injection plan for the *next* pool run: when the
/// chosen task dequeues its `on_receive`-th message (1-based, counting
/// every delivery into that task), the action fires — [`FaultAction::Kill`]
/// panics the task instead of delivering, [`FaultAction::Delay`] delays
/// the delivery. Exists so failure paths can be exercised reproducibly;
/// production runs never install a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// The victim task.
    pub tid: TaskId,
    /// 1-based index of the received message that triggers the action.
    pub on_receive: usize,
    /// What happens when the trigger fires.
    pub action: FaultAction,
}

impl FaultPlan {
    /// Kill `tid` when it dequeues its `on_receive`-th message.
    pub fn kill(tid: TaskId, on_receive: usize) -> Self {
        FaultPlan {
            tid,
            on_receive,
            action: FaultAction::Kill,
        }
    }

    /// Delay `tid`'s `on_receive`-th delivery by `delay`.
    pub fn delay(tid: TaskId, on_receive: usize, delay: Duration) -> Self {
        FaultPlan {
            tid,
            on_receive,
            action: FaultAction::Delay(delay),
        }
    }

    /// Kill `tid` on its `on_receive`-th delivery, and kill every
    /// respawned incarnation on its first.
    pub fn kill_repeatedly(tid: TaskId, on_receive: usize) -> Self {
        FaultPlan {
            tid,
            on_receive,
            action: FaultAction::KillRepeatedly,
        }
    }
}

/// Installed fault state on a task's context (interior counter: the recv
/// methods take `&self`).
struct FaultState {
    on_receive: usize,
    action: FaultAction,
    received: Cell<usize>,
}

/// Per-task communication totals for one pool run (see
/// [`WorkerPool::last_comm_stats`]). Counts are cumulative across every
/// incarnation of the task within that run — a resurrected task keeps
/// adding to the same slot, so the totals describe the *logical* task.
///
/// Accounting happens exactly once, at the transport boundary: sends are
/// counted inside [`TaskCtx::send_bytes`] (the socket backends count at
/// their frame writer), receives inside the delivery path. Call sites
/// never tally bytes themselves, so every [`Transport`](crate::Transport)
/// implementation reports comparable figures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Envelopes successfully handed to a peer's mailbox.
    pub sent: u64,
    /// Envelopes dequeued from this task's own mailbox.
    pub received: u64,
    /// Payload bytes of the successfully sent envelopes.
    pub bytes_sent: u64,
    /// Payload bytes of the dequeued envelopes.
    pub bytes_received: u64,
}

/// Interior atomic cell backing one task's [`CommStats`]; one per task id,
/// shared (via `Arc`) by every incarnation the run creates. Also reused by
/// the socket backends so all transports count identically.
#[derive(Default)]
pub(crate) struct CommCell {
    pub(crate) sent: AtomicU64,
    pub(crate) received: AtomicU64,
    pub(crate) bytes_sent: AtomicU64,
    pub(crate) bytes_received: AtomicU64,
}

impl CommCell {
    pub(crate) fn snapshot(&self) -> CommStats {
        CommStats {
            sent: self.sent.load(Ordering::Relaxed),
            received: self.received.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
        }
    }

    /// Count one successful send of `nbytes` payload bytes.
    pub(crate) fn count_sent(&self, nbytes: u64) {
        self.sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(nbytes, Ordering::Relaxed);
    }

    /// Count one delivered envelope of `nbytes` payload bytes.
    pub(crate) fn count_received(&self, nbytes: u64) {
        self.received.fetch_add(1, Ordering::Relaxed);
        self.bytes_received.fetch_add(nbytes, Ordering::Relaxed);
    }
}

/// Per-task handle to the farm: identity, mailbox, and the run's
/// shared supervision state (which lets a master task resurrect dead peers
/// mid-run via [`respawn`](TaskCtx::respawn)).
pub struct TaskCtx {
    tid: TaskId,
    /// This task's view of the address table. `RefCell` so a respawn can
    /// repoint the caller's own entry at the reborn incarnation's mailbox.
    senders: RefCell<Vec<Sender<Envelope>>>,
    inbox: Receiver<Envelope>,
    fault: Option<FaultState>,
    supervision: Arc<Supervision>,
    /// The run's comm accounting, indexed by task id; every incarnation of
    /// a task charges the same slot.
    comm: Arc<Vec<CommCell>>,
}

impl TaskCtx {
    /// This task's id.
    pub fn tid(&self) -> TaskId {
        self.tid
    }

    /// Number of tasks in the farm.
    pub fn ntasks(&self) -> usize {
        self.senders.borrow().len()
    }

    /// Send packed bytes to task `to`. Sending to oneself is allowed.
    pub fn send_bytes(&self, to: TaskId, tag: u32, data: Vec<u8>) -> Result<(), CommError> {
        let senders = self.senders.borrow();
        assert!(to < senders.len(), "task id {to} out of range");
        let nbytes = data.len() as u64;
        senders[to]
            .send(Envelope {
                from: self.tid,
                tag,
                data,
            })
            .map_err(|_| CommError::PeerGone { to })
            .inspect(|()| self.comm[self.tid].count_sent(nbytes))
    }

    /// This task's cumulative communication totals so far in the run
    /// (shared across every incarnation of the task id).
    pub fn comm_stats(&self) -> CommStats {
        self.comm[self.tid].snapshot()
    }

    /// Pack and send a typed message.
    pub fn send<T: Wire>(&self, to: TaskId, tag: u32, msg: &T) -> Result<(), CommError> {
        self.send_bytes(to, tag, msg.to_bytes())
    }

    /// Block until a message arrives.
    pub fn recv(&self) -> Result<Envelope, CommError> {
        self.inbox
            .recv()
            .map_err(|_| CommError::Disconnected)
            .map(|env| self.deliver(env))
    }

    /// Block until a message arrives or the timeout elapses. Cooperative
    /// protocols should prefer this so a dead peer surfaces as an error
    /// instead of a hang. Timeouts too large for an `Instant` deadline
    /// mean "wait forever" (see [`Receiver::recv_timeout`]).
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, CommError> {
        self.inbox
            .recv_timeout(timeout)
            .map_err(|e| match e {
                RecvTimeoutError::Timeout => CommError::Timeout,
                RecvTimeoutError::Disconnected => CommError::Disconnected,
            })
            .map(|env| self.deliver(env))
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Envelope> {
        self.inbox.try_recv().ok().map(|env| self.deliver(env))
    }

    /// Count a delivery against the installed fault plan, firing the
    /// action when the trigger is reached (no-op without a plan).
    fn deliver(&self, env: Envelope) -> Envelope {
        self.comm[self.tid].count_received(env.data.len() as u64);
        if let Some(fault) = &self.fault {
            let n = fault.received.get() + 1;
            fault.received.set(n);
            if n == fault.on_receive {
                match fault.action {
                    FaultAction::Kill | FaultAction::KillRepeatedly => {
                        panic!("fault injection: task {} killed on receive {n}", self.tid)
                    }
                    FaultAction::Delay(delay) => std::thread::sleep(delay),
                }
            }
        }
        env
    }

    /// Resurrect task `tid` mid-run: a fresh incarnation of the task — new
    /// mailbox, fresh context, running the same task closure — is
    /// dispatched onto the pool, and the canonical address table is
    /// updated so this caller's subsequent sends to `tid` reach the reborn
    /// incarnation. A superseded incarnation still alive (a straggler)
    /// keeps running against its old mailbox until it exits on its own or
    /// is nudged by [`notify_orphans`](TaskCtx::notify_orphans); only this
    /// caller's sender table is refreshed — other live tasks keep their
    /// stale entries, which fits a master/slave protocol where only the
    /// master addresses workers.
    ///
    /// Returns `false` if the run is already retiring (no new incarnation
    /// can be admitted).
    pub fn respawn(&self, tid: TaskId) -> bool {
        assert!(tid != self.tid, "a task cannot respawn itself");
        let mut inner = self.supervision.lock();
        assert!(tid < inner.senders.len(), "task id {tid} out of range");
        if inner.launch.is_none() {
            return false;
        }
        let (tx, rx) = unbounded::<Envelope>();
        let old = std::mem::replace(&mut inner.senders[tid], tx);
        inner.orphans.push(old);
        let fault = inner
            .fault_plan
            .filter(|p| p.tid == tid && p.action == FaultAction::KillRepeatedly)
            .map(|p| FaultState {
                on_receive: 1, // re-armed: the reborn victim dies on its first delivery
                action: p.action,
                received: Cell::new(0),
            });
        let ctx = TaskCtx {
            tid,
            senders: RefCell::new(inner.senders.clone()),
            inbox: rx,
            fault,
            supervision: Arc::clone(&self.supervision),
            comm: Arc::clone(&self.comm),
        };
        let job = (inner.launch.as_ref().expect("checked above"))(tid, ctx);
        inner.extra_dispatched += 1;
        // Prefer the task's pool thread (idle again after a caught panic);
        // if it is truly dead (its injector disconnected), rebuild it with
        // a fallback thread the pool adopts when the run ends.
        let injector = inner
            .replacements
            .iter()
            .rev()
            .find(|(t, _, _)| *t == tid)
            .map(|(_, tx, _)| tx)
            .unwrap_or(&inner.injectors[tid]);
        if let Err(SendError(job)) = injector.send(job) {
            let (tx, handle) = spawn_worker(tid);
            assert!(tx.send(job).is_ok(), "fresh worker rejected its job");
            inner.replacements.push((tid, tx, handle));
        }
        // Refresh the caller's own address table.
        self.senders.borrow_mut()[tid] = inner.senders[tid].clone();
        true
    }

    /// Nudge every superseded incarnation with an empty message of `tag`
    /// (typically the protocol's shutdown tag) so orphans blocked in a
    /// receive can exit promptly instead of waiting out a timeout.
    /// Incarnations already gone are skipped silently.
    pub fn notify_orphans(&self, tag: u32) {
        let inner = self.supervision.lock();
        for tx in &inner.orphans {
            let _ = tx.send(Envelope {
                from: self.tid,
                tag,
                data: Vec::new(),
            });
        }
    }
}

/// Factory minting the job for one task incarnation, type-erased over the
/// run's task closure and result type. Retired (`None`) once the run's
/// collection loop has ended, after which no incarnation can be admitted.
type Launch = Box<dyn Fn(TaskId, TaskCtx) -> Job + Send>;

/// Mid-run supervision state shared by every task context of one run.
struct SupervisionInner {
    /// Canonical address table: index `tid` always points at the mailbox
    /// of the *live* incarnation of task `tid`.
    senders: Vec<Sender<Envelope>>,
    /// Job injectors of the pool threads, in task order.
    injectors: Vec<Sender<Job>>,
    /// Job factory for reborn incarnations; `None` once the run retires.
    launch: Option<Launch>,
    /// Jobs dispatched beyond the initial one-per-task; each reports a
    /// completion of its own, growing the collection target.
    extra_dispatched: usize,
    /// Fallback threads spawned because a pool thread was found dead
    /// mid-run; adopted into the pool when the run ends.
    replacements: Vec<(TaskId, Sender<Job>, std::thread::JoinHandle<()>)>,
    /// Mailbox senders of superseded incarnations, kept so
    /// [`TaskCtx::notify_orphans`] can unblock them at shutdown.
    orphans: Vec<Sender<Envelope>>,
    /// The run's fault plan; re-arms [`FaultAction::KillRepeatedly`] on
    /// every respawn of its victim.
    fault_plan: Option<FaultPlan>,
}

/// Shared wrapper around [`SupervisionInner`] (poison-recovering lock, like
/// every lock in this crate).
struct Supervision {
    inner: Mutex<SupervisionInner>,
}

impl Supervision {
    fn lock(&self) -> MutexGuard<'_, SupervisionInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A job shipped to a pool worker. The `'static` bound is a lie the pool
/// maintains internally: jobs borrow from the [`WorkerPool::run`] stack
/// frame, and `run` never returns before every dispatched job has finished.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Stringify a panic payload (the common `&str` / `String` cases; anything
/// else gets a placeholder — the task id still locates the failure).
fn panic_payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// A persistent farm: `ntasks` worker threads spawned once, reused by every
/// [`run`](WorkerPool::run) until the pool is dropped.
///
/// Each run gets fresh mailboxes, so runs are fully
/// isolated from each other; only the OS threads are amortized. A task that
/// panics is caught on its worker thread — the pool survives and the run
/// reports [`FarmError::TaskPanicked`] with the original panic message. A
/// worker whose OS thread actually died (it can only die by unwinding
/// outside a task, e.g. [`kill_thread`](WorkerPool::kill_thread)) is
/// replaced at the start of the next run, so a degraded pool heals itself
/// between runs.
pub struct WorkerPool {
    injectors: Vec<Sender<Job>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    /// Threads respawned by healing over the pool's lifetime.
    respawned: usize,
    /// One-shot fault plan consumed by the next run (testing hook).
    fault_plan: Option<FaultPlan>,
    /// Per-task comm totals of the most recent run (empty before any run).
    last_comm: Vec<CommStats>,
}

/// Spawn one pool worker: a thread serving jobs from its injector until
/// the injector is dropped.
fn spawn_worker(tid: TaskId) -> (Sender<Job>, std::thread::JoinHandle<()>) {
    let (tx, rx) = unbounded::<Job>();
    let handle = std::thread::Builder::new()
        .name(format!("pvm-worker-{tid}"))
        .spawn(move || {
            // Serve jobs until the pool drops the injector. Jobs dispatched
            // by `run_collect` never unwind here (they wrap the task in
            // catch_unwind); a job that does unwind kills this thread, and
            // `heal` replaces it on the next run.
            while let Ok(job) = rx.recv() {
                job();
            }
        })
        .expect("spawn pool worker");
    (tx, handle)
}

impl WorkerPool {
    /// Spawn a pool of `ntasks` worker threads (one per farm task).
    pub fn new(ntasks: usize) -> Self {
        assert!(ntasks >= 1, "farm needs at least one task");
        let mut injectors = Vec::with_capacity(ntasks);
        let mut handles = Vec::with_capacity(ntasks);
        for tid in 0..ntasks {
            let (tx, handle) = spawn_worker(tid);
            injectors.push(tx);
            handles.push(handle);
        }
        WorkerPool {
            injectors,
            handles,
            respawned: 0,
            fault_plan: None,
            last_comm: Vec::new(),
        }
    }

    /// Number of tasks (worker threads) in the pool.
    pub fn ntasks(&self) -> usize {
        self.injectors.len()
    }

    /// The ids of the pool's OS threads, in task order. Stable across runs —
    /// the observable guarantee that runs reuse threads instead of
    /// respawning — except for threads that died and were healed.
    pub fn thread_ids(&self) -> Vec<std::thread::ThreadId> {
        self.handles.iter().map(|h| h.thread().id()).collect()
    }

    /// Threads the pool has respawned to replace dead ones (0 for a pool
    /// that never lost a thread).
    pub fn respawned_threads(&self) -> usize {
        self.respawned
    }

    /// Per-task communication totals of the most recent
    /// [`run`](WorkerPool::run) / [`run_collect`](WorkerPool::run_collect),
    /// in task-id order (empty before the first run). Totals are cumulative
    /// over every incarnation a task had within that run.
    pub fn last_comm_stats(&self) -> &[CommStats] {
        &self.last_comm
    }

    /// Install a one-shot [`FaultPlan`]: the next [`run`](WorkerPool::run)
    /// (or [`run_collect`](WorkerPool::run_collect)) injects the fault into
    /// the chosen task, then the plan is cleared. Testing hook.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = Some(plan);
    }

    /// Kill the OS thread behind task `tid` (it unwinds outside any task
    /// job), then wait for it to die. The pool is degraded until the next
    /// run heals it by respawning the thread. Testing hook for the healing
    /// path; task-level failures should use [`FaultPlan`] instead.
    pub fn kill_thread(&mut self, tid: TaskId) {
        assert!(tid < self.ntasks(), "task id {tid} out of range");
        let poison: Job = Box::new(|| panic!("fault injection: pool thread killed"));
        if self.injectors[tid].send(poison).is_ok() {
            while !self.handles[tid].is_finished() {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    /// Replace dead worker threads so the next run has a full farm.
    fn heal(&mut self) {
        for tid in 0..self.handles.len() {
            if self.handles[tid].is_finished() {
                let (tx, handle) = spawn_worker(tid);
                let old = std::mem::replace(&mut self.handles[tid], handle);
                self.injectors[tid] = tx;
                let _ = old.join(); // reap; the panic payload is expected
                self.respawned += 1;
            }
        }
    }

    /// Run one farm: every task executes `f` with its own [`TaskCtx`].
    /// Returns the per-task results in task-id order, or the lowest
    /// panicking task id with its panic message. Convenience over
    /// [`run_collect`](WorkerPool::run_collect) for callers that treat any
    /// task death as fatal.
    pub fn run<R, F>(&mut self, f: F) -> Result<Vec<R>, FarmError>
    where
        R: Send,
        F: Fn(TaskCtx) -> R + Sync,
    {
        let outcomes = self.run_collect(f);
        let mut results = Vec::with_capacity(outcomes.len());
        let mut panicked: Option<(TaskId, String)> = None;
        for (tid, out) in outcomes.into_iter().enumerate() {
            match out {
                TaskOutcome::Done(r) => results.push(r),
                TaskOutcome::Panicked(message) => {
                    if panicked.is_none() {
                        panicked = Some((tid, message));
                    }
                }
            }
        }
        match panicked {
            Some((tid, message)) => Err(FarmError::TaskPanicked { tid, message }),
            None => Ok(results),
        }
    }

    /// Run one farm and report every task's individual outcome in task-id
    /// order. A panicking task does not hide its peers' results — callers
    /// that degrade gracefully (a master surviving slave loss) read the
    /// survivors' results here and match panics to tasks themselves.
    pub fn run_collect<R, F>(&mut self, f: F) -> Vec<TaskOutcome<R>>
    where
        R: Send,
        F: Fn(TaskCtx) -> R + Sync,
    {
        self.heal();
        let fault_plan = self.fault_plan.take();
        let ntasks = self.ntasks();
        let mut senders = Vec::with_capacity(ntasks);
        let mut receivers = Vec::with_capacity(ntasks);
        for _ in 0..ntasks {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(rx);
        }
        let comm: Arc<Vec<CommCell>> = Arc::new((0..ntasks).map(|_| CommCell::default()).collect());
        let (done_tx, done_rx) = unbounded::<(TaskId, Result<R, String>)>();

        // The launch closure turns a (tid, ctx) pair into a dispatchable
        // job; stashing it in the shared supervision state is what lets a
        // running task mint *new* incarnations mid-run (TaskCtx::respawn).
        let launch: Box<dyn Fn(TaskId, TaskCtx) -> Job + Send + '_> = {
            let f = &f;
            let done_tx = done_tx.clone();
            Box::new(move |tid, ctx| {
                let done = done_tx.clone();
                let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    let out = catch_unwind(AssertUnwindSafe(|| f(ctx)))
                        .map_err(|payload| panic_payload_message(payload.as_ref()));
                    // The receiver outlives every job; a failed send can
                    // only mean `run_collect` already returned, which the
                    // protocol forbids.
                    let _ = done.send((tid, out));
                });
                // SAFETY: jobs borrow `f` and the done sender from the
                // `run_collect` stack frame. `run_collect` blocks below
                // until every dispatched job — initial and respawned alike
                // (the collection target counts extra_dispatched) — has
                // either sent its completion (panics are caught) or is
                // provably dead (its `done` sender dropped with the dying
                // thread, disconnecting `done_rx`), so no borrow outlives
                // that frame. Workers only terminate when the pool is
                // dropped, which requires `&mut self` exclusivity to have
                // ended — or by a non-task unwind, which drops the queued
                // job and its borrows on that dead thread before `done_rx`
                // can disconnect.
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) }
            })
        };
        // SAFETY: the same frame-outliving argument covers the factory
        // itself — it is retired (dropped from the supervision state)
        // before `run_collect` returns, so erasing its borrow of `f` and
        // the done sender to 'static never lets them dangle.
        let launch: Launch = unsafe {
            std::mem::transmute::<Box<dyn Fn(TaskId, TaskCtx) -> Job + Send + '_>, Launch>(launch)
        };

        let supervision = Arc::new(Supervision {
            inner: Mutex::new(SupervisionInner {
                senders: senders.clone(),
                injectors: self.injectors.clone(),
                launch: Some(launch),
                extra_dispatched: 0,
                replacements: Vec::new(),
                orphans: Vec::new(),
                fault_plan,
            }),
        });

        let mut dispatched = 0usize;
        for (tid, inbox) in receivers.into_iter().enumerate() {
            let ctx = TaskCtx {
                tid,
                senders: RefCell::new(senders.clone()),
                inbox,
                fault: fault_plan
                    .filter(|plan| plan.tid == tid)
                    .map(|plan| FaultState {
                        on_receive: plan.on_receive,
                        action: plan.action,
                        received: Cell::new(0),
                    }),
                supervision: Arc::clone(&supervision),
                comm: Arc::clone(&comm),
            };
            let job = {
                let inner = supervision.lock();
                (inner.launch.as_ref().expect("installed above"))(tid, ctx)
            };
            if self.injectors[tid].send(job).is_ok() {
                dispatched += 1;
            }
        }
        drop(senders); // tasks + supervision hold the only mailbox senders now
        drop(done_tx); // jobs + the launch factory hold the remaining clones

        let mut results: Vec<Option<TaskOutcome<R>>> = (0..ntasks).map(|_| None).collect();
        let mut completed = 0usize;
        // The target is re-read every round: a respawn performed by a
        // still-running task grows it before that task's own completion
        // can arrive, so the loop never exits with a reborn incarnation
        // outstanding.
        loop {
            let target = dispatched + supervision.lock().extra_dispatched;
            if completed >= target {
                break;
            }
            // A disconnect means a worker thread died with its job still
            // queued (its `done` sender is gone); the unfilled slots below
            // record that instead of wedging the caller.
            let Ok((tid, out)) = done_rx.recv() else {
                break;
            };
            completed += 1;
            // Last write wins: a reborn incarnation's completion (always
            // later on the FIFO done channel) supersedes the record of the
            // incarnation it replaced.
            results[tid] = Some(match out {
                Ok(r) => TaskOutcome::Done(r),
                Err(message) => TaskOutcome::Panicked(message),
            });
        }

        // Retire the run: drop the launch factory (and its borrows of this
        // frame) and adopt fallback threads spawned mid-run into the pool.
        let replacements = {
            let mut inner = supervision.lock();
            inner.launch = None;
            std::mem::take(&mut inner.replacements)
        };
        for (tid, tx, handle) in replacements {
            self.injectors[tid] = tx;
            let old = std::mem::replace(&mut self.handles[tid], handle);
            let _ = old.join(); // dead — that is why the fallback exists
            self.respawned += 1;
        }
        // Every task has completed (or provably died), so the totals are
        // final; publish them for the caller's telemetry.
        self.last_comm = comm.iter().map(CommCell::snapshot).collect();

        results
            .into_iter()
            .map(|r| r.unwrap_or_else(|| TaskOutcome::Panicked("pool worker thread died".into())))
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.injectors.clear(); // disconnect: workers exit their serve loop
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Run `ntasks` tasks once, all executing `f` with their own [`TaskCtx`].
/// Returns the per-task results in task-id order, or the first panicking
/// task id with the original panic message. One-shot convenience over a
/// throwaway [`WorkerPool`]; callers with repeated runs should hold a pool
/// (or a `core` Engine) instead.
pub fn run_farm<R, F>(ntasks: usize, f: F) -> Result<Vec<R>, FarmError>
where
    R: Send,
    F: Fn(TaskCtx) -> R + Sync,
{
    WorkerPool::new(ntasks).run(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{PackBuffer, UnpackBuffer};

    const T: Duration = Duration::from_secs(5);

    #[derive(Debug, Clone, PartialEq)]
    struct Num(i64);
    impl Wire for Num {
        fn pack(&self, buf: &mut PackBuffer) {
            buf.put_i64(self.0);
        }
        fn unpack(buf: &mut UnpackBuffer<'_>) -> Result<Self, CodecError> {
            Ok(Num(buf.get_i64()?))
        }
    }

    #[test]
    fn single_task_farm() {
        let r = run_farm(1, |ctx| ctx.tid() * 10).unwrap();
        assert_eq!(r, vec![0]);
    }

    #[test]
    fn results_in_task_order() {
        let r = run_farm(5, |ctx| ctx.tid()).unwrap();
        assert_eq!(r, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn ping_pong() {
        let r = run_farm(2, |ctx| {
            if ctx.tid() == 0 {
                ctx.send(1, 1, &Num(21)).unwrap();
                let reply = ctx.recv_timeout(T).unwrap();
                reply.decode::<Num>().unwrap().0
            } else {
                let msg = ctx.recv_timeout(T).unwrap();
                assert_eq!(msg.from, 0);
                assert_eq!(msg.tag, 1);
                let n = msg.decode::<Num>().unwrap();
                ctx.send(0, 2, &Num(n.0 * 2)).unwrap();
                0
            }
        })
        .unwrap();
        assert_eq!(r[0], 42);
    }

    #[test]
    fn master_gathers_from_all_slaves() {
        let p = 4;
        let r = run_farm(p + 1, |ctx| {
            if ctx.tid() == 0 {
                let mut sum = 0i64;
                for _ in 0..p {
                    sum += ctx.recv_timeout(T).unwrap().decode::<Num>().unwrap().0;
                }
                sum
            } else {
                ctx.send(0, 0, &Num(ctx.tid() as i64)).unwrap();
                0
            }
        })
        .unwrap();
        assert_eq!(r[0], (1..=p as i64).sum::<i64>());
    }

    #[test]
    fn messages_from_one_sender_keep_order() {
        let r = run_farm(2, |ctx| {
            if ctx.tid() == 0 {
                for k in 0..100 {
                    ctx.send(1, 0, &Num(k)).unwrap();
                }
                0
            } else {
                let mut last = -1;
                for _ in 0..100 {
                    let v = ctx.recv_timeout(T).unwrap().decode::<Num>().unwrap().0;
                    assert_eq!(v, last + 1, "reordered delivery");
                    last = v;
                }
                last
            }
        })
        .unwrap();
        assert_eq!(r[1], 99);
    }

    #[test]
    fn self_send_works() {
        let r = run_farm(1, |ctx| {
            ctx.send(0, 7, &Num(5)).unwrap();
            ctx.recv_timeout(T).unwrap().decode::<Num>().unwrap().0
        })
        .unwrap();
        assert_eq!(r, vec![5]);
    }

    #[test]
    fn panic_is_reported_with_task_id_and_message() {
        let err = run_farm(3, |ctx| {
            if ctx.tid() == 1 {
                panic!("injected failure {}", 41 + 1);
            }
        })
        .unwrap_err();
        let FarmError::TaskPanicked { tid, message } = err;
        assert_eq!(tid, 1);
        assert!(
            message.contains("injected failure 42"),
            "panic payload lost: {message:?}"
        );
    }

    #[test]
    fn recv_timeout_surfaces_dead_peer() {
        // Slave dies before sending; master's timed receive must error
        // rather than hang.
        let r = run_farm(2, |ctx| {
            if ctx.tid() == 0 {
                matches!(
                    ctx.recv_timeout(Duration::from_millis(50)),
                    Err(CommError::Timeout | CommError::Disconnected)
                )
            } else {
                true // slave exits immediately
            }
        })
        .unwrap();
        assert!(r[0]);
    }

    #[test]
    fn send_to_finished_task_errors() {
        let r = run_farm(2, |ctx| {
            if ctx.tid() == 0 {
                // Wait for the peer to be done, then send into the void.
                let hello = ctx.recv_timeout(T).unwrap();
                assert_eq!(hello.tag, 9);
                // Spin until the send fails (peer teardown is asynchronous).
                for _ in 0..1000 {
                    if ctx.send(1, 0, &Num(1)).is_err() {
                        return true;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                false
            } else {
                ctx.send(0, 9, &Num(0)).unwrap();
                true // exit drops the mailbox
            }
        })
        .unwrap();
        assert!(r[0], "send to dead task never errored");
    }

    #[test]
    fn send_out_of_range_panics_the_task() {
        // The panic happens on the task thread and surfaces as a farm error
        // carrying the original assertion message.
        let err = run_farm(1, |ctx| {
            let _ = ctx.send_bytes(5, 0, vec![]);
        })
        .unwrap_err();
        let FarmError::TaskPanicked { tid, message } = err;
        assert_eq!(tid, 0);
        assert!(message.contains("out of range"), "got: {message:?}");
    }

    #[test]
    fn pool_reuses_threads_across_runs() {
        let mut pool = WorkerPool::new(3);
        let before = pool.thread_ids();
        let ids1 = pool.run(|_ctx| std::thread::current().id()).unwrap();
        let ids2 = pool.run(|_ctx| std::thread::current().id()).unwrap();
        assert_eq!(ids1, ids2, "runs landed on different threads");
        assert_eq!(ids1, before, "jobs ran off-pool");
        assert_eq!(pool.thread_ids(), before, "pool respawned threads");
    }

    #[test]
    fn pool_runs_are_isolated() {
        // Messages from run 1 must not leak into run 2's mailboxes.
        let mut pool = WorkerPool::new(2);
        pool.run(|ctx| {
            if ctx.tid() == 0 {
                // Never received; peer may already be done (send may error),
                // either way the message must die with this run's mailboxes.
                let _ = ctx.send(1, 9, &Num(1));
            }
        })
        .unwrap();
        let r = pool
            .run(|ctx| {
                if ctx.tid() == 1 {
                    matches!(
                        ctx.recv_timeout(Duration::from_millis(50)),
                        Err(CommError::Timeout | CommError::Disconnected)
                    )
                } else {
                    true
                }
            })
            .unwrap();
        assert!(r[1], "stale message crossed runs");
    }

    #[test]
    fn pool_survives_a_panicked_run() {
        let mut pool = WorkerPool::new(2);
        let err = pool
            .run(|ctx| {
                if ctx.tid() == 1 {
                    panic!("boom");
                }
            })
            .unwrap_err();
        let FarmError::TaskPanicked { tid, message } = err;
        assert_eq!(tid, 1);
        assert!(message.contains("boom"));
        // The same pool serves the next run on the same threads.
        let ok = pool.run(|ctx| ctx.tid()).unwrap();
        assert_eq!(ok, vec![0, 1]);
    }

    #[test]
    fn lowest_panicking_tid_wins() {
        let err = run_farm(4, |ctx| {
            if ctx.tid() >= 2 {
                panic!("task {} down", ctx.tid());
            }
        })
        .unwrap_err();
        let FarmError::TaskPanicked { tid, message } = err;
        assert_eq!(tid, 2);
        assert!(message.contains("task 2 down"), "got: {message:?}");
    }

    #[test]
    fn pool_replaces_dead_threads() {
        let mut pool = WorkerPool::new(3);
        let before = pool.thread_ids();
        pool.kill_thread(1);
        assert_eq!(pool.respawned_threads(), 0, "healing is lazy");
        // The next run heals the pool: task 1 lands on a fresh thread,
        // the survivors keep theirs, and the farm is whole again.
        let ids = pool.run(|_ctx| std::thread::current().id()).unwrap();
        assert_eq!(pool.respawned_threads(), 1);
        assert_eq!(ids[0], before[0]);
        assert_eq!(ids[2], before[2]);
        assert_ne!(ids[1], before[1], "dead thread was not replaced");
        // Subsequent runs reuse the healed thread.
        let again = pool.run(|_ctx| std::thread::current().id()).unwrap();
        assert_eq!(again, ids);
        assert_eq!(pool.respawned_threads(), 1);
    }

    #[test]
    fn fault_plan_kills_chosen_task_on_chosen_receive() {
        let mut pool = WorkerPool::new(2);
        pool.set_fault_plan(FaultPlan::kill(1, 2));
        let outcomes = pool.run_collect(|ctx| {
            if ctx.tid() == 0 {
                ctx.send(1, 1, &Num(1)).unwrap();
                ctx.send(1, 1, &Num(2)).unwrap();
                0
            } else {
                let a = ctx.recv_timeout(T).unwrap().decode::<Num>().unwrap().0;
                // The fault fires inside this second receive.
                let b = ctx.recv_timeout(T).unwrap().decode::<Num>().unwrap().0;
                a + b
            }
        });
        assert!(matches!(outcomes[0], TaskOutcome::Done(0)));
        match &outcomes[1] {
            TaskOutcome::Panicked(msg) => assert!(msg.contains("fault injection"), "{msg:?}"),
            other => panic!("task 1 survived its fault: {other:?}"),
        }
        // The plan is one-shot: the next run is fault-free.
        let clean = pool.run(|ctx| ctx.tid()).unwrap();
        assert_eq!(clean, vec![0, 1]);
    }

    #[test]
    fn fault_plan_delays_chosen_task() {
        let mut pool = WorkerPool::new(2);
        pool.set_fault_plan(FaultPlan::delay(1, 1, Duration::from_millis(150)));
        let outcomes = pool.run_collect(|ctx| {
            if ctx.tid() == 0 {
                ctx.send(1, 1, &Num(7)).unwrap();
                Duration::ZERO
            } else {
                let start = std::time::Instant::now();
                ctx.recv_timeout(T).unwrap();
                start.elapsed()
            }
        });
        match outcomes[1] {
            TaskOutcome::Done(elapsed) => assert!(
                elapsed >= Duration::from_millis(150),
                "delay fault did not stall the receive: {elapsed:?}"
            ),
            ref other => panic!("task 1 failed: {other:?}"),
        }
    }

    #[test]
    fn run_collect_reports_survivors_alongside_panics() {
        let outcomes = WorkerPool::new(3).run_collect(|ctx| {
            if ctx.tid() == 1 {
                panic!("down");
            }
            ctx.tid() * 10
        });
        assert!(matches!(outcomes[0], TaskOutcome::Done(0)));
        assert!(matches!(outcomes[1], TaskOutcome::Panicked(_)));
        assert!(matches!(outcomes[2], TaskOutcome::Done(20)));
    }

    #[test]
    fn respawn_revives_a_killed_task_mid_run() {
        let mut pool = WorkerPool::new(2);
        pool.set_fault_plan(FaultPlan::kill(1, 1));
        let outcomes = pool.run_collect(|ctx| {
            if ctx.tid() == 0 {
                // The first incarnation of task 1 dies inside this delivery.
                ctx.send(1, 1, &Num(21)).unwrap();
                assert!(matches!(
                    ctx.recv_timeout(Duration::from_millis(300)),
                    Err(CommError::Timeout)
                ));
                // The second incarnation is fault-free and answers.
                assert!(ctx.respawn(1));
                ctx.send(1, 1, &Num(21)).unwrap();
                ctx.recv_timeout(T).unwrap().decode::<Num>().unwrap().0
            } else {
                let n = ctx.recv_timeout(T).unwrap().decode::<Num>().unwrap().0;
                ctx.send(0, 2, &Num(n * 2)).unwrap();
                n
            }
        });
        match &outcomes[0] {
            TaskOutcome::Done(n) => assert_eq!(*n, 42),
            other => panic!("master failed: {other:?}"),
        }
        // The reborn incarnation's completion supersedes the panic record.
        match &outcomes[1] {
            TaskOutcome::Done(n) => assert_eq!(*n, 21),
            other => panic!("reborn task not recorded: {other:?}"),
        }
        // The panic was task-level: no thread died, none was rebuilt.
        assert_eq!(pool.respawned_threads(), 0);
    }

    #[test]
    fn kill_repeatedly_downs_every_incarnation() {
        let mut pool = WorkerPool::new(2);
        pool.set_fault_plan(FaultPlan::kill_repeatedly(1, 1));
        let outcomes = pool.run_collect(|ctx| {
            if ctx.tid() == 0 {
                ctx.send(1, 1, &Num(1)).unwrap();
                for _ in 0..2 {
                    assert!(matches!(
                        ctx.recv_timeout(Duration::from_millis(200)),
                        Err(CommError::Timeout)
                    ));
                    assert!(ctx.respawn(1));
                    ctx.send(1, 1, &Num(1)).unwrap();
                }
                assert!(matches!(
                    ctx.recv_timeout(Duration::from_millis(200)),
                    Err(CommError::Timeout)
                ));
                0
            } else {
                // Every incarnation dies inside its first delivery.
                let n = ctx.recv_timeout(T).unwrap().decode::<Num>().unwrap().0;
                ctx.send(0, 2, &Num(n)).unwrap();
                n
            }
        });
        assert!(matches!(outcomes[0], TaskOutcome::Done(0)));
        match &outcomes[1] {
            TaskOutcome::Panicked(msg) => assert!(msg.contains("fault injection"), "{msg:?}"),
            other => panic!("kill_repeatedly let an incarnation live: {other:?}"),
        }
    }

    #[test]
    fn notify_orphans_wakes_superseded_incarnations() {
        let mut pool = WorkerPool::new(2);
        let outcomes = pool.run_collect(|ctx| {
            if ctx.tid() == 0 {
                ctx.send(1, 1, &Num(1)).unwrap(); // first incarnation consumes this
                ctx.recv_timeout(T).unwrap(); // ack: it is now parked in recv()
                assert!(ctx.respawn(1)); // supersede it while it still lives
                ctx.send(1, 9, &Num(0)).unwrap(); // reborn incarnation exits on tag 9
                ctx.notify_orphans(9); // ...and so must the orphan
                0
            } else {
                let mut seen = 0;
                loop {
                    // Blocking receive on purpose: without the nudge the
                    // orphan would wedge the run forever.
                    let env = ctx.recv().unwrap();
                    if env.tag == 9 {
                        return seen;
                    }
                    seen += 1;
                    let _ = ctx.send(0, 2, &Num(seen));
                }
            }
        });
        assert!(matches!(outcomes[0], TaskOutcome::Done(0)));
        // Both incarnations exited cleanly (3 completions were collected:
        // 2 dispatched + 1 respawned); whichever lands last wins the slot.
        match outcomes[1] {
            TaskOutcome::Done(n) => assert!(n <= 1),
            ref other => panic!("an incarnation failed: {other:?}"),
        }
    }

    #[test]
    fn comm_stats_count_sends_receives_and_bytes() {
        let mut pool = WorkerPool::new(2);
        assert!(pool.last_comm_stats().is_empty(), "stats before any run");
        pool.run(|ctx| {
            if ctx.tid() == 0 {
                ctx.send(1, 1, &Num(3)).unwrap(); // 8 payload bytes
                ctx.send(1, 1, &Num(4)).unwrap();
                ctx.recv_timeout(T).unwrap();
            } else {
                ctx.recv_timeout(T).unwrap();
                ctx.recv_timeout(T).unwrap();
                ctx.send(0, 2, &Num(7)).unwrap();
            }
        })
        .unwrap();
        let stats = pool.last_comm_stats().to_vec();
        assert_eq!(stats[0].sent, 2);
        assert_eq!(stats[0].received, 1);
        assert_eq!(stats[0].bytes_sent, 16);
        assert_eq!(stats[0].bytes_received, 8);
        assert_eq!(stats[1].sent, 1);
        assert_eq!(stats[1].received, 2);
        assert_eq!(stats[1].bytes_sent, 8);
        assert_eq!(stats[1].bytes_received, 16);
        // A later run replaces the totals rather than accumulating.
        pool.run(|_ctx| ()).unwrap();
        let quiet = pool.last_comm_stats();
        assert_eq!(quiet[0], CommStats::default());
        assert_eq!(quiet[1], CommStats::default());
    }

    #[test]
    fn tags_discriminate_protocols() {
        let r = run_farm(2, |ctx| {
            if ctx.tid() == 0 {
                ctx.send(1, 10, &Num(1)).unwrap();
                ctx.send(1, 20, &Num(2)).unwrap();
                0
            } else {
                let a = ctx.recv_timeout(T).unwrap();
                let b = ctx.recv_timeout(T).unwrap();
                assert_eq!((a.tag, b.tag), (10, 20));
                (a.decode::<Num>().unwrap().0 * 100 + b.decode::<Num>().unwrap().0) as usize
            }
        })
        .unwrap();
        assert_eq!(r[1], 102);
    }
}
