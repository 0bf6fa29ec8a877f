//! Multi-tenant enactment daemon: a long-lived service multiplexing
//! many concurrent [`WorkflowInstance`]s over one shared backend and
//! one shared provenance memo table.
//!
//! The paper's MOTEUR enactor is a one-shot engine — load one SCUFL
//! workflow, enact it, exit. The daemon is the production step beyond
//! the paper (ROADMAP item 1): `submit` accepts SCUFL source plus a
//! tenant id, every live instance is stepped cooperatively through the
//! resumable [`WorkflowInstance`] state machine, and the shared
//! [`DataStore`] turns the data-parallel cache into a *cross-tenant*
//! memo table — the second tenant submitting an identical workflow
//! replays the first tenant's results instead of recomputing them.
//!
//! Isolation comes from [`ScopedBackend`]: each instance's invocation
//! tags live in a disjoint 32-bit-shifted namespace, so completions
//! route back to their owner and a cancel can never retract a
//! sibling's jobs. Fairness comes from weighted round-robin dispatch:
//! each scheduling round gives every tenant a dispatch budget of
//! `weight × quantum` invocations (further capped by the tenant's
//! in-flight job ceiling), so one flooding tenant cannot starve the
//! rest. Admission control bounds live workflows per tenant; excess
//! submissions queue and admit as earlier ones finish.
//!
//! The control protocol lives in [`protocol`]: newline-delimited JSON
//! (`moteur/daemon/v1`) served over stdin/stdout or a Unix socket by
//! `moteur daemon`.

pub mod protocol;

use crate::backend::{Backend, BackendCompletion, InvocationId, ScopedBackend, WaitOutcome};
use crate::config::EnactorConfig;
use crate::enactor::{EnactCtx, InputData, WorkflowInstance};
use crate::error::MoteurError;
use crate::ft::FtConfig;
use crate::graph::Workflow;
use crate::obs::Obs;
use crate::store::{DataStore, StoreStats};
use moteur_gridsim::SimTime;
use std::collections::{BTreeMap, VecDeque};

/// How the daemon turns SCUFL source into an enactable workflow.
///
/// The core crate has no SCUFL parser (that lives in `moteur-scufl`,
/// which depends on core), so the embedder injects one: the two
/// arguments are the workflow XML and the input-data XML.
pub type ScuflParser = fn(&str, &str) -> Result<(Workflow, InputData), MoteurError>;

/// Per-tenant admission and fairness knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantConfig {
    /// Relative share of each scheduling round's dispatch budget.
    pub weight: u32,
    /// Live (admitted, unfinished) workflows allowed at once; further
    /// submissions queue.
    pub max_inflight_workflows: usize,
    /// Backend jobs the tenant may have in flight across all its
    /// instances.
    pub max_inflight_jobs: usize,
}

impl Default for TenantConfig {
    fn default() -> Self {
        TenantConfig {
            weight: 1,
            max_inflight_workflows: 4,
            max_inflight_jobs: 256,
        }
    }
}

/// Daemon-wide configuration.
#[derive(Debug, Clone, Default)]
pub struct DaemonConfig {
    /// Applied to tenants without an explicit override.
    pub tenant_defaults: TenantConfig,
    /// Invocations one weight unit may dispatch per scheduling round;
    /// `0` is treated as `1`.
    pub quantum: usize,
    /// Per-tenant overrides of the defaults.
    pub tenant_overrides: BTreeMap<String, TenantConfig>,
}

impl DaemonConfig {
    /// The effective configuration of `tenant`.
    pub fn tenant(&self, tenant: &str) -> TenantConfig {
        self.tenant_overrides
            .get(tenant)
            .copied()
            .unwrap_or(self.tenant_defaults)
    }

    fn quantum(&self) -> usize {
        self.quantum.max(1)
    }
}

/// Lifecycle of one submitted workflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstanceState {
    /// Accepted but waiting for an admission slot.
    Queued,
    /// Admitted and being stepped.
    Running,
    /// Finished with a valid [`crate::WorkflowResult`].
    Succeeded,
    /// Terminally failed (enactment error or deadlock).
    Failed,
    /// Cancelled by the tenant; in-flight jobs were drained.
    Cancelled,
}

impl InstanceState {
    /// Protocol label (`queued`, `running`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            InstanceState::Queued => "queued",
            InstanceState::Running => "running",
            InstanceState::Succeeded => "succeeded",
            InstanceState::Failed => "failed",
            InstanceState::Cancelled => "cancelled",
        }
    }

    fn is_terminal(self) -> bool {
        matches!(
            self,
            InstanceState::Succeeded | InstanceState::Failed | InstanceState::Cancelled
        )
    }
}

/// A parsed submission waiting for admission.
struct QueuedWork {
    workflow: Workflow,
    inputs: InputData,
    config: EnactorConfig,
    ft: FtConfig,
}

enum Body {
    Queued(Box<QueuedWork>),
    Running(Box<WorkflowInstance>),
    Finished,
}

struct Slot {
    id: u32,
    /// Index into [`Daemon::tenants`].
    tenant: usize,
    workflow_name: String,
    state: InstanceState,
    submitted_at: SimTime,
    first_job_at: Option<SimTime>,
    finished_at: Option<SimTime>,
    error: Option<String>,
    store_hits: u64,
    store_misses: u64,
    jobs_submitted: usize,
    makespan_secs: Option<f64>,
    body: Body,
}

impl Slot {
    fn inflight(&self) -> usize {
        match &self.body {
            Body::Running(i) => i.inflight(),
            _ => 0,
        }
    }
}

struct TenantState {
    name: String,
    /// Running instance ids, ascending (submission order).
    running: VecDeque<u32>,
    /// Queued instance ids, ascending: admission is FIFO per tenant.
    queued: VecDeque<u32>,
    store_hits: u64,
    store_misses: u64,
}

/// Insert `id` into an ascending id list (no-op when present).
fn insert_id(ids: &mut VecDeque<u32>, id: u32) {
    if let Err(pos) = ids.binary_search(&id) {
        ids.insert(pos, id);
    }
}

/// Remove `id` from an ascending id list (no-op when absent).
fn remove_id(ids: &mut VecDeque<u32>, id: u32) {
    if let Ok(pos) = ids.binary_search(&id) {
        ids.remove(pos);
    }
}

/// The smallest id in an ascending list greater than `after` (or the
/// first one for `None`): a cursor that survives the removal of the
/// id it stands on, so callers can walk a list they mutate.
fn next_id(ids: &VecDeque<u32>, after: Option<u32>) -> Option<u32> {
    let pos = after.map_or(0, |a| ids.partition_point(|&x| x <= a));
    ids.get(pos).copied()
}

/// Point-in-time view of one instance, rendered by `status` / `list`.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceStatus {
    pub id: u32,
    pub tenant: String,
    pub workflow: String,
    pub state: InstanceState,
    pub submitted_at: f64,
    pub first_job_at: Option<f64>,
    pub finished_at: Option<f64>,
    pub inflight: usize,
    pub jobs_submitted: usize,
    pub store_hits: u64,
    pub store_misses: u64,
    pub makespan_secs: Option<f64>,
    pub error: Option<String>,
}

/// Per-tenant slice of [`DaemonMetrics`].
#[derive(Debug, Clone, PartialEq)]
pub struct TenantMetrics {
    pub tenant: String,
    pub running: usize,
    pub queued: usize,
    pub inflight_jobs: usize,
    pub store_hits: u64,
    pub store_misses: u64,
}

impl TenantMetrics {
    /// Hits over lookups attributed to this tenant; 0 with no lookups.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.store_hits + self.store_misses;
        if total == 0 {
            0.0
        } else {
            self.store_hits as f64 / total as f64
        }
    }
}

/// Daemon-level gauges plus per-tenant label families.
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonMetrics {
    pub running: usize,
    pub queued: usize,
    pub succeeded: usize,
    pub failed: usize,
    pub cancelled: usize,
    pub store: StoreStats,
    pub tenants: Vec<TenantMetrics>,
}

/// The multi-tenant enactment service.
///
/// Scheduling state is indexed, not re-derived: each tenant keeps its
/// running and queued ids, and the daemon keeps every running id, all
/// updated in one place as instances move between states. A step
/// therefore costs O(tenants + running instances touched), not
/// O(every submission ever taken).
pub struct Daemon {
    backend: Box<dyn Backend>,
    store: DataStore,
    parser: ScuflParser,
    config: DaemonConfig,
    /// Tenants in first-submission order; slots refer to them by index.
    tenants: Vec<TenantState>,
    /// Tenant indices sorted by name: the dispatch and metrics order.
    tenant_order: Vec<usize>,
    slots: Vec<Slot>,
    /// Running instance ids across all tenants, ascending.
    running: VecDeque<u32>,
}

impl std::fmt::Debug for Daemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Daemon")
            .field("instances", &self.slots.len())
            .field("tenants", &self.tenants.len())
            .finish_non_exhaustive()
    }
}

impl Daemon {
    /// A daemon over `backend` with `store` as the shared memo table.
    pub fn new(
        backend: Box<dyn Backend>,
        store: DataStore,
        parser: ScuflParser,
        config: DaemonConfig,
    ) -> Self {
        Daemon {
            backend,
            store,
            parser,
            config,
            tenants: Vec::new(),
            tenant_order: Vec::new(),
            slots: Vec::new(),
            running: VecDeque::new(),
        }
    }

    /// Override the admission / fairness knobs of one tenant. A weight
    /// of zero is rejected: it would grant the tenant a zero dispatch
    /// budget every round, silently starving its admitted workflows
    /// forever.
    pub fn set_tenant(&mut self, tenant: &str, config: TenantConfig) -> Result<(), MoteurError> {
        if config.weight == 0 {
            return Err(MoteurError::new(format!(
                "tenant `{tenant}`: weight 0 would starve its workflows \
                 forever; use a positive weight"
            )));
        }
        self.config.tenant_overrides.insert(tenant.into(), config);
        Ok(())
    }

    /// Shared memo table (for inspection; the daemon owns it).
    pub fn store(&self) -> &DataStore {
        &self.store
    }

    /// Current backend clock.
    pub fn now(&self) -> SimTime {
        self.backend.now()
    }

    /// Accept a workflow submission from `tenant`. The source is
    /// parsed immediately (malformed SCUFL is rejected here, not
    /// later); the instance is admitted at once when the tenant has a
    /// free workflow slot, otherwise it queues. Returns the instance
    /// id used by `status` / `cancel`.
    pub fn submit(
        &mut self,
        tenant: &str,
        workflow_xml: &str,
        inputs_xml: &str,
        config: EnactorConfig,
        ft: FtConfig,
    ) -> Result<u32, MoteurError> {
        if self.config.tenant(tenant).weight == 0 {
            // A zero-weight tenant gets a zero dispatch budget every
            // round: its workflows would admit and then hang forever.
            // Reject loudly at the protocol boundary instead.
            return Err(MoteurError::new(format!(
                "tenant `{tenant}` has weight 0 and would never be \
                 scheduled; configure a positive weight"
            )));
        }
        let (workflow, inputs) = (self.parser)(workflow_xml, inputs_xml)?;
        let id = u32::try_from(self.slots.len() + 1)
            .map_err(|_| MoteurError::new("daemon instance table full"))?;
        let t = self.tenant_index(tenant);
        // Ids only grow, so pushing keeps the queue ascending.
        self.tenants[t].queued.push_back(id);
        self.slots.push(Slot {
            id,
            tenant: t,
            workflow_name: workflow.name.clone(),
            state: InstanceState::Queued,
            submitted_at: self.backend.now(),
            first_job_at: None,
            finished_at: None,
            error: None,
            store_hits: 0,
            store_misses: 0,
            jobs_submitted: 0,
            makespan_secs: None,
            body: Body::Queued(Box::new(QueuedWork {
                workflow,
                inputs,
                config,
                ft,
            })),
        });
        self.schedule();
        Ok(id)
    }

    /// Cancel a queued or running instance, draining its in-flight
    /// jobs from the shared backend ([`WorkflowInstance::abort`]
    /// through a [`ScopedBackend`] retracts only this instance's
    /// attempt tags). `false` when the id is unknown or the instance
    /// already reached a terminal state.
    pub fn cancel(&mut self, id: u32) -> bool {
        let Some(i) = self.slot_index(id) else {
            return false;
        };
        if self.slots[i].state.is_terminal() {
            return false;
        }
        let slot = &mut self.slots[i];
        if let Body::Running(instance) = &mut slot.body {
            let mut scoped = ScopedBackend::new(self.backend.as_mut(), slot.id);
            let mut ctx = EnactCtx {
                backend: &mut scoped,
                store: Some(&mut self.store),
            };
            instance.abort(&mut ctx);
        }
        slot.body = Body::Finished;
        slot.finished_at = Some(self.backend.now());
        self.set_state(i, InstanceState::Cancelled);
        // A workflow slot freed up; admit queued work.
        self.schedule();
        true
    }

    /// Status of one instance; `None` for an unknown id.
    pub fn status(&self, id: u32) -> Option<InstanceStatus> {
        self.slot_index(id).map(|i| self.status_of(&self.slots[i]))
    }

    /// Status of every instance, in submission order.
    pub fn list(&self) -> Vec<InstanceStatus> {
        self.slots.iter().map(|s| self.status_of(s)).collect()
    }

    /// Daemon gauges plus per-tenant families, tenants sorted by name.
    pub fn metrics(&self) -> DaemonMetrics {
        let mut running = 0;
        let mut queued = 0;
        let mut succeeded = 0;
        let mut failed = 0;
        let mut cancelled = 0;
        for s in &self.slots {
            match s.state {
                InstanceState::Queued => queued += 1,
                InstanceState::Running => running += 1,
                InstanceState::Succeeded => succeeded += 1,
                InstanceState::Failed => failed += 1,
                InstanceState::Cancelled => cancelled += 1,
            }
        }
        let tenants = self
            .tenant_order
            .iter()
            .map(|&t| {
                let ts = &self.tenants[t];
                TenantMetrics {
                    tenant: ts.name.clone(),
                    running: ts.running.len(),
                    queued: ts.queued.len(),
                    inflight_jobs: self.tenant_inflight_jobs(t),
                    store_hits: ts.store_hits,
                    store_misses: ts.store_misses,
                }
            })
            .collect();
        DaemonMetrics {
            running,
            queued,
            succeeded,
            failed,
            cancelled,
            store: self.store.stats(),
            tenants,
        }
    }

    /// Step the daemon through one backend wait: admit and pump every
    /// runnable instance, then block on the earliest of the next
    /// completion and the next fault-tolerance deadline. Returns
    /// `false` once no instance is queued or running.
    pub fn step(&mut self) -> bool {
        self.schedule();
        if self.running.is_empty() {
            // Queued without running can only mean admission is wedged
            // (a tenant configured with zero workflow slots).
            return false;
        }
        let mut wake: Option<SimTime> = None;
        for &id in &self.running {
            if let Body::Running(instance) = &self.slots[id as usize - 1].body {
                if let Some(w) = instance.next_wake() {
                    wake = Some(wake.map_or(w, |c| c.min(w)));
                }
            }
        }
        match wake {
            None => match self.backend.wait_next() {
                Some(c) => self.route(c),
                None => {
                    // Running instances but nothing at the backend and
                    // no timer: the shared backend lost their jobs.
                    // Fail them rather than spin forever.
                    while let Some(&id) = self.running.front() {
                        self.fail(
                            id,
                            "backend returned no completion for in-flight work".into(),
                        );
                    }
                }
            },
            Some(deadline) => match self.backend.wait_next_until(deadline) {
                WaitOutcome::Completion(c) => self.route(c),
                WaitOutcome::TimedOut => {
                    // A timer can only fail its own instance, so the
                    // cursor visits exactly the instances running now.
                    let mut cursor = next_id(&self.running, None);
                    while let Some(id) = cursor {
                        self.timer(id);
                        cursor = next_id(&self.running, Some(id));
                    }
                }
            },
        }
        true
    }

    /// Run [`Daemon::step`] until every instance reaches a terminal
    /// state; returns how many succeeded overall.
    pub fn drain(&mut self) -> usize {
        while self.step() {}
        self.slots
            .iter()
            .filter(|s| s.state == InstanceState::Succeeded)
            .count()
    }

    // -- internals ----------------------------------------------------

    fn slot_index(&self, id: u32) -> Option<usize> {
        // Ids are 1-based submission order.
        let i = (id as usize).checked_sub(1)?;
        (i < self.slots.len()).then_some(i)
    }

    fn status_of(&self, s: &Slot) -> InstanceStatus {
        InstanceStatus {
            id: s.id,
            tenant: self.tenants[s.tenant].name.clone(),
            workflow: s.workflow_name.clone(),
            state: s.state,
            submitted_at: s.submitted_at.as_secs_f64(),
            first_job_at: s.first_job_at.map(SimTime::as_secs_f64),
            finished_at: s.finished_at.map(SimTime::as_secs_f64),
            inflight: s.inflight(),
            jobs_submitted: s.jobs_submitted,
            store_hits: s.store_hits,
            store_misses: s.store_misses,
            makespan_secs: s.makespan_secs,
            error: s.error.clone(),
        }
    }

    /// Where `tenant` sits (or would sit) in [`Daemon::tenant_order`].
    fn tenant_position(&self, tenant: &str) -> Result<usize, usize> {
        self.tenant_order
            .binary_search_by(|&t| self.tenants[t].name.as_str().cmp(tenant))
    }

    /// The index of `tenant`, registering it on first sight.
    fn tenant_index(&mut self, tenant: &str) -> usize {
        match self.tenant_position(tenant) {
            Ok(k) => self.tenant_order[k],
            Err(k) => {
                let t = self.tenants.len();
                self.tenants.push(TenantState {
                    name: tenant.into(),
                    running: VecDeque::new(),
                    queued: VecDeque::new(),
                    store_hits: 0,
                    store_misses: 0,
                });
                self.tenant_order.insert(k, t);
                t
            }
        }
    }

    /// Can `tenant` admit one more workflow?
    fn has_room(&self, tenant: &TenantState) -> bool {
        tenant.running.len() < self.config.tenant(&tenant.name).max_inflight_workflows
    }

    /// Jobs in flight across tenant `t`'s running instances.
    fn tenant_inflight_jobs(&self, t: usize) -> usize {
        self.tenants[t]
            .running
            .iter()
            .map(|&id| self.slots[id as usize - 1].inflight())
            .sum()
    }

    /// Move slot `i` to `state`, keeping the running and queued
    /// indexes in step. Every state change after submission goes
    /// through here; instances are queued only by `submit`.
    fn set_state(&mut self, i: usize, state: InstanceState) {
        let (id, old) = (self.slots[i].id, self.slots[i].state);
        let tenant = &mut self.tenants[self.slots[i].tenant];
        match old {
            InstanceState::Queued => remove_id(&mut tenant.queued, id),
            InstanceState::Running => {
                remove_id(&mut tenant.running, id);
                remove_id(&mut self.running, id);
            }
            _ => {}
        }
        if state == InstanceState::Running {
            insert_id(&mut tenant.running, id);
            insert_id(&mut self.running, id);
        }
        self.slots[i].state = state;
    }

    /// Credit a store-stats delta to slot `i` and its tenant.
    fn attribute(&mut self, i: usize, before: StoreStats) {
        let after = self.store.stats();
        let hits = after.hits - before.hits;
        let misses = after.misses - before.misses;
        let slot = &mut self.slots[i];
        slot.store_hits += hits;
        slot.store_misses += misses;
        let tenant = &mut self.tenants[slot.tenant];
        tenant.store_hits += hits;
        tenant.store_misses += misses;
    }

    fn fail(&mut self, id: u32, message: String) {
        let Some(i) = self.slot_index(id) else { return };
        let slot = &mut self.slots[i];
        if let Body::Running(instance) = &mut slot.body {
            let mut scoped = ScopedBackend::new(self.backend.as_mut(), slot.id);
            let mut ctx = EnactCtx {
                backend: &mut scoped,
                store: Some(&mut self.store),
            };
            instance.abort(&mut ctx);
        }
        slot.body = Body::Finished;
        slot.error = Some(message);
        slot.finished_at = Some(self.backend.now());
        self.set_state(i, InstanceState::Failed);
    }

    /// Admission + weighted fair dispatch + reaping, to fixpoint.
    fn schedule(&mut self) {
        loop {
            self.admit();
            let dispatched = self.dispatch_round();
            // Finished instances free admission slots mid-fixpoint.
            self.reap();
            if dispatched == 0 && !self.has_admittable() {
                break;
            }
        }
    }

    /// One weighted round-robin dispatch round: each tenant gets a
    /// budget of `weight × quantum` dispatches (capped by its
    /// in-flight job ceiling), spread over its running instances in
    /// submission order. [`Daemon::schedule`] repeats rounds until one
    /// dispatches nothing, so dispatch reaches the same fixpoint as
    /// the one-shot engine's fire-to-fixpoint phase — just interleaved
    /// fairly across tenants.
    fn dispatch_round(&mut self) -> usize {
        let quantum = self.config.quantum();
        let mut dispatched = 0;
        for k in 0..self.tenant_order.len() {
            let t = self.tenant_order[k];
            let cfg = self.config.tenant(&self.tenants[t].name);
            // saturating_mul: an extreme `--weights` value must clamp
            // the budget, not overflow it to a tiny (or panicking) cap.
            let cap = (cfg.weight as usize).saturating_mul(quantum).min(
                cfg.max_inflight_jobs
                    .saturating_sub(self.tenant_inflight_jobs(t)),
            );
            let mut remaining = cap;
            // A pump can only fail its own instance, so the cursor
            // visits exactly the tenant's instances running now.
            let mut cursor = next_id(&self.tenants[t].running, None);
            while let Some(id) = cursor {
                if remaining == 0 {
                    break;
                }
                let fired = self.pump(id, Some(remaining));
                remaining -= fired.min(remaining);
                dispatched += fired;
                cursor = next_id(&self.tenants[t].running, Some(id));
            }
        }
        dispatched
    }

    /// Is any queued submission admissible right now?
    fn has_admittable(&self) -> bool {
        self.tenants
            .iter()
            .any(|t| !t.queued.is_empty() && self.has_room(t))
    }

    /// Admit queued submissions whose tenant has a free workflow slot,
    /// lowest id first. Admitting only narrows its own tenant's room,
    /// so taking the lowest queued id among tenants with room, again
    /// and again, admits in submission order.
    fn admit(&mut self) {
        while let Some(id) = self
            .tenants
            .iter()
            .filter(|t| self.has_room(t))
            .filter_map(|t| t.queued.front().copied())
            .min()
        {
            let i = id as usize - 1;
            let body = std::mem::replace(&mut self.slots[i].body, Body::Finished);
            let Body::Queued(work) = body else {
                unreachable!("queued state carries queued work")
            };
            let before = self.store.stats();
            let mut scoped = ScopedBackend::new(self.backend.as_mut(), id);
            let mut ctx = EnactCtx {
                backend: &mut scoped,
                store: Some(&mut self.store),
            };
            match WorkflowInstance::start(
                &work.workflow,
                &work.inputs,
                work.config,
                work.ft,
                &mut ctx,
                Obs::off(),
            ) {
                Ok(instance) => {
                    self.slots[i].body = Body::Running(Box::new(instance));
                    self.set_state(i, InstanceState::Running);
                    self.attribute(i, before);
                }
                Err(e) => {
                    self.attribute(i, before);
                    self.fail(id, e.message().into());
                }
            }
        }
    }

    /// Pump one running instance under a dispatch budget; returns how
    /// many invocations it dispatched. Errors fail the instance.
    fn pump(&mut self, id: u32, budget: Option<usize>) -> usize {
        let Some(i) = self.slot_index(id) else {
            return 0;
        };
        let before = self.store.stats();
        let slot = &mut self.slots[i];
        let Body::Running(instance) = &mut slot.body else {
            return 0;
        };
        let mut scoped = ScopedBackend::new(self.backend.as_mut(), slot.id);
        let mut ctx = EnactCtx {
            backend: &mut scoped,
            store: Some(&mut self.store),
        };
        let result = instance.pump_budgeted(&mut ctx, budget);
        let jobs = instance.jobs_submitted();
        self.slots[i].jobs_submitted = jobs;
        self.attribute(i, before);
        match result {
            Ok(fired) => {
                if fired > 0 && self.slots[i].first_job_at.is_none() {
                    self.slots[i].first_job_at = Some(self.backend.now());
                }
                fired
            }
            Err(e) => {
                self.fail(id, e.message().into());
                0
            }
        }
    }

    /// Finish every running instance whose work is exhausted. Mirrors
    /// the one-shot loop's exit condition: after a fire-to-fixpoint
    /// with nothing dispatched, zero in-flight work means done.
    fn reap(&mut self) {
        // Reaping only ever finishes the instance it stands on, so the
        // cursor visits exactly the instances running now.
        let mut cursor = next_id(&self.running, None);
        while let Some(id) = cursor {
            cursor = next_id(&self.running, Some(id));
            let i = id as usize - 1;
            if self.slots[i].inflight() > 0 {
                continue;
            }
            // A final unbudgeted pump distinguishes "done" from "ready
            // work parked behind a budget cap".
            if self.pump(id, None) > 0 || self.slots[i].state != InstanceState::Running {
                continue;
            }
            let body = std::mem::replace(&mut self.slots[i].body, Body::Finished);
            let Body::Running(instance) = body else {
                unreachable!("running state carries an instance")
            };
            let now = self.backend.now();
            let slot = &mut self.slots[i];
            slot.finished_at = Some(now);
            let state = match instance.finish(now) {
                Ok(result) => {
                    slot.jobs_submitted = result.jobs_submitted;
                    slot.makespan_secs = Some(result.makespan.as_secs_f64());
                    InstanceState::Succeeded
                }
                Err(e) => {
                    slot.error = Some(e.message().into());
                    InstanceState::Failed
                }
            };
            self.set_state(i, state);
        }
    }

    /// Route one raw backend completion to its owning instance.
    fn route(&mut self, mut c: BackendCompletion) {
        let id = ScopedBackend::instance_of(c.invocation.0);
        c.invocation = InvocationId(ScopedBackend::local_tag(c.invocation.0));
        let Some(i) = self.slot_index(id) else {
            return; // late completion of an unknown instance: drop
        };
        let before = self.store.stats();
        let slot = &mut self.slots[i];
        let Body::Running(instance) = &mut slot.body else {
            return; // instance already cancelled/failed: drop
        };
        let mut scoped = ScopedBackend::new(self.backend.as_mut(), slot.id);
        let mut ctx = EnactCtx {
            backend: &mut scoped,
            store: Some(&mut self.store),
        };
        let result = instance.deliver(&mut ctx, c);
        self.attribute(i, before);
        if let Err(e) = result {
            self.fail(id, e.message().into());
        }
    }

    /// A backend wait timed out at an instance deadline: let every
    /// running instance act on expired timeouts and due backoffs.
    fn timer(&mut self, id: u32) {
        let Some(i) = self.slot_index(id) else { return };
        let before = self.store.stats();
        let slot = &mut self.slots[i];
        let Body::Running(instance) = &mut slot.body else {
            return;
        };
        let mut scoped = ScopedBackend::new(self.backend.as_mut(), slot.id);
        let mut ctx = EnactCtx {
            backend: &mut scoped,
            store: Some(&mut self.store),
        };
        let result = instance.on_timer(&mut ctx);
        self.attribute(i, before);
        if let Err(e) = result {
            self.fail(id, e.message().into());
        }
    }
}

// The daemon's behavioural tests live in `tests/daemon.rs`: they
// parse SCUFL through `moteur-scufl`, whose dev-dependency cycle
// resolves to a *separate* build of this crate inside unit tests.
