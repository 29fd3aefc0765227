//! Instances: lifecycle state, per-instance job execution and failures.

use std::collections::{BTreeSet, VecDeque};
use std::fmt;

use evop_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::types::{InstanceId, InstanceType, MachineImage};

/// A unique job identifier, assigned by the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct JobId(pub(crate) u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// What a job does on the instance.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum JobKind {
    /// A model run or other user computation.
    Run,
    /// Installing a model on an incubator instance.
    Install {
        /// The model being installed.
        model: String,
    },
}

/// Execution state of one job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JobState {
    /// Waiting for a free vCPU slot.
    Queued,
    /// Executing; will finish at the given instant unless the instance fails.
    Running {
        /// When execution started.
        started: SimTime,
        /// When execution will complete.
        finish_at: SimTime,
    },
    /// Finished successfully.
    Completed {
        /// When execution completed.
        finished: SimTime,
    },
    /// Lost to an instance failure or termination before completing.
    Lost {
        /// When the job was lost.
        at: SimTime,
    },
}

/// One unit of work submitted to an instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    id: JobId,
    kind: JobKind,
    /// Pure compute time at full speed, before image penalties.
    work: SimDuration,
    submitted_at: SimTime,
    state: JobState,
}

impl Job {
    /// The job id.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// Run or install.
    pub fn kind(&self) -> &JobKind {
        &self.kind
    }

    /// Nominal compute time at full speed.
    pub fn work(&self) -> SimDuration {
        self.work
    }

    /// When the job was submitted.
    pub fn submitted_at(&self) -> SimTime {
        self.submitted_at
    }

    /// Current execution state.
    pub fn state(&self) -> JobState {
        self.state
    }

    /// Sojourn time (submit → completion), if completed.
    pub fn latency(&self) -> Option<SimDuration> {
        match self.state {
            JobState::Completed { finished } => Some(finished.saturating_since(self.submitted_at)),
            _ => None,
        }
    }
}

/// How an instance fails. The modes produce the metric signatures the
/// paper's Load Balancer watches for (§IV-D): "sustained high CPU
/// utilisation or zero outbound network usage whilst receiving inbound
/// traffic".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FailureMode {
    /// The instance disappears entirely (host failure).
    Crash,
    /// The instance wedges at 100 % CPU and stops completing jobs.
    Hang,
    /// The instance keeps receiving traffic but sends nothing back.
    NetworkBlackhole,
}

impl fmt::Display for FailureMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FailureMode::Crash => "crash",
            FailureMode::Hang => "hang",
            FailureMode::NetworkBlackhole => "network blackhole",
        };
        f.write_str(s)
    }
}

/// Lifecycle state of an instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InstanceState {
    /// Booting; becomes running at the given instant.
    Pending {
        /// When boot completes.
        ready_at: SimTime,
    },
    /// Serving.
    Running,
    /// Cleanly terminated.
    Terminated {
        /// When it was terminated.
        at: SimTime,
    },
    /// Failed with the given mode. Failed instances still occupy capacity
    /// until terminated (as a hung VM does in a real cloud).
    Failed {
        /// When it failed.
        at: SimTime,
        /// How it failed.
        mode: FailureMode,
    },
}

/// A virtual machine instance.
#[derive(Debug, Clone)]
pub struct Instance {
    id: InstanceId,
    provider: String,
    itype: InstanceType,
    image: MachineImage,
    state: InstanceState,
    launched_at: SimTime,
    installed_models: BTreeSet<String>,
    jobs: Vec<Job>,
    queue: VecDeque<usize>,
    running: Vec<usize>,
}

impl Instance {
    pub(crate) fn new(
        id: InstanceId,
        provider: String,
        itype: InstanceType,
        image: MachineImage,
        launched_at: SimTime,
        ready_at: SimTime,
    ) -> Instance {
        let installed_models = match image.kind() {
            crate::types::ImageKind::Streamlined { models } => models.iter().cloned().collect(),
            crate::types::ImageKind::Incubator => BTreeSet::new(),
        };
        Instance {
            id,
            provider,
            itype,
            image,
            state: InstanceState::Pending { ready_at },
            launched_at,
            installed_models,
            jobs: Vec::new(),
            queue: VecDeque::new(),
            running: Vec::new(),
        }
    }

    /// The instance id.
    pub fn id(&self) -> InstanceId {
        self.id
    }

    /// The provider the instance runs on.
    pub fn provider(&self) -> &str {
        &self.provider
    }

    /// The instance flavour.
    pub fn instance_type(&self) -> &InstanceType {
        &self.itype
    }

    /// The machine image the instance booted from.
    pub fn image(&self) -> &MachineImage {
        &self.image
    }

    /// Current lifecycle state.
    pub fn state(&self) -> InstanceState {
        self.state
    }

    /// When the launch was requested.
    pub fn launched_at(&self) -> SimTime {
        self.launched_at
    }

    /// `true` once booted and not terminated/failed.
    pub fn is_running(&self) -> bool {
        matches!(self.state, InstanceState::Running)
    }

    /// `true` while the instance occupies provider capacity (anything except
    /// terminated).
    pub fn occupies_capacity(&self) -> bool {
        !matches!(self.state, InstanceState::Terminated { .. })
    }

    /// Models currently installed and runnable at full configuration.
    pub fn installed_models(&self) -> impl Iterator<Item = &str> {
        self.installed_models.iter().map(String::as_str)
    }

    /// `true` if `model` can run without an install step.
    pub fn has_model(&self, model: &str) -> bool {
        self.installed_models.contains(model)
    }

    /// All jobs ever submitted, in submission order.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// A job by id, if it was submitted to this instance. A binary
    /// search, since a long-lived instance accumulates its whole job
    /// history in ascending id order.
    pub fn job(&self, id: JobId) -> Option<&Job> {
        self.jobs.get(self.job_index(id)?)
    }

    /// Where job `id` sits in `jobs`. The simulator draws every id from
    /// one ascending counter and jobs are only ever appended, so `jobs`
    /// is sorted by id even when the ids interleave across instances.
    fn job_index(&self, id: JobId) -> Option<usize> {
        self.jobs.binary_search_by_key(&id, |j| j.id).ok()
    }

    /// Number of jobs currently executing.
    pub fn running_jobs(&self) -> usize {
        self.running.len()
    }

    /// Number of jobs waiting for a slot.
    pub fn queued_jobs(&self) -> usize {
        self.queue.len()
    }

    /// Instantaneous CPU utilisation in `[0, 1]`. A hung instance is pegged
    /// at 1.0.
    pub fn cpu_utilisation(&self) -> f64 {
        match self.state {
            InstanceState::Failed { mode: FailureMode::Hang, .. } => 1.0,
            InstanceState::Terminated { .. }
            | InstanceState::Failed { mode: FailureMode::Crash, .. } => 0.0,
            _ => self.running.len() as f64 / f64::from(self.itype.vcpus()),
        }
    }

    // ------------------------------------------------------------------
    // Mutators driven by CloudSim. Each returns the set of (job, finish
    // time) pairs that newly started executing, for event scheduling.
    // ------------------------------------------------------------------

    pub(crate) fn mark_running(&mut self) {
        if matches!(self.state, InstanceState::Pending { .. }) {
            self.state = InstanceState::Running;
        }
    }

    /// Submits a job; starts it immediately if a slot is free.
    pub(crate) fn submit(
        &mut self,
        id: JobId,
        kind: JobKind,
        work: SimDuration,
        now: SimTime,
    ) -> Vec<(JobId, SimTime)> {
        let job = Job { id, kind, work, submitted_at: now, state: JobState::Queued };
        self.jobs.push(job);
        self.queue.push_back(self.jobs.len() - 1);
        self.start_queued(now)
    }

    /// Completes a running job (if it is still the one we scheduled), then
    /// starts any queued jobs that now fit.
    pub(crate) fn complete(&mut self, id: JobId, now: SimTime) -> Vec<(JobId, SimTime)> {
        let Some(idx) = self.job_index(id) else {
            return Vec::new();
        };
        let running = self.is_running();
        let Some(job) = self.jobs.get_mut(idx) else {
            return Vec::new();
        };
        let is_current =
            matches!(job.state, JobState::Running { finish_at, .. } if finish_at == now);
        if !is_current || !running {
            return Vec::new(); // stale event (failure intervened)
        }
        job.state = JobState::Completed { finished: now };
        if let JobKind::Install { model } = job.kind.clone() {
            self.installed_models.insert(model);
        }
        self.running.retain(|&r| r != idx);
        self.start_queued(now)
    }

    /// Starts queued jobs while slots are free. Only valid on a running
    /// instance; pending instances start their backlog on boot.
    pub(crate) fn start_queued(&mut self, now: SimTime) -> Vec<(JobId, SimTime)> {
        if !self.is_running() {
            return Vec::new();
        }
        let mut started = Vec::new();
        while self.running.len() < self.itype.vcpus() as usize {
            let Some(idx) = self.queue.pop_front() else { break };
            let penalty = self.image.execution_penalty();
            let Some(job) = self.jobs.get_mut(idx) else { continue };
            let duration = SimDuration::from_secs_f64(job.work.as_secs_f64() * penalty);
            let finish_at = now + duration;
            job.state = JobState::Running { started: now, finish_at };
            started.push((job.id, finish_at));
            self.running.push(idx);
        }
        started
    }

    /// Fails the instance: running and queued jobs are lost.
    pub(crate) fn fail(&mut self, mode: FailureMode, now: SimTime) {
        if !self.occupies_capacity() {
            return;
        }
        self.state = InstanceState::Failed { at: now, mode };
        if mode != FailureMode::NetworkBlackhole {
            // Blackholed instances keep computing; their results just never
            // arrive. Crash/hang lose in-flight work immediately.
            self.lose_in_flight(now);
        } else {
            // Results can't leave the instance: jobs complete internally but
            // callers never see them; model as lost too.
            self.lose_in_flight(now);
        }
    }

    /// Terminates the instance: in-flight jobs are lost, capacity released.
    pub(crate) fn terminate(&mut self, now: SimTime) {
        if matches!(self.state, InstanceState::Terminated { .. }) {
            return;
        }
        self.lose_in_flight(now);
        self.state = InstanceState::Terminated { at: now };
    }

    fn lose_in_flight(&mut self, now: SimTime) {
        for idx in self.running.drain(..) {
            if let Some(job) = self.jobs.get_mut(idx) {
                job.state = JobState::Lost { at: now };
            }
        }
        while let Some(idx) = self.queue.pop_front() {
            if let Some(job) = self.jobs.get_mut(idx) {
                job.state = JobState::Lost { at: now };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::MachineImage;

    fn instance(vcpus: u32) -> Instance {
        let itype = InstanceType::new("test", vcpus, 4.0, 0.1);
        let image = MachineImage::streamlined("img", ["topmodel"]);
        let mut inst = Instance::new(
            InstanceId(1),
            "campus".to_owned(),
            itype,
            image,
            SimTime::ZERO,
            SimTime::from_secs(45),
        );
        inst.mark_running();
        inst
    }

    #[test]
    fn submit_starts_when_slot_free() {
        let mut inst = instance(2);
        let started =
            inst.submit(JobId(1), JobKind::Run, SimDuration::from_secs(10), SimTime::ZERO);
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].1, SimTime::from_secs(10));
        assert_eq!(inst.running_jobs(), 1);
    }

    #[test]
    fn excess_jobs_queue_fifo() {
        let mut inst = instance(1);
        let now = SimTime::ZERO;
        inst.submit(JobId(1), JobKind::Run, SimDuration::from_secs(10), now);
        let started2 = inst.submit(JobId(2), JobKind::Run, SimDuration::from_secs(10), now);
        assert!(started2.is_empty());
        assert_eq!(inst.queued_jobs(), 1);

        let next = inst.complete(JobId(1), SimTime::from_secs(10));
        assert_eq!(next.len(), 1);
        assert_eq!(next[0].0, JobId(2));
        assert_eq!(next[0].1, SimTime::from_secs(20));
    }

    #[test]
    fn stale_completion_is_ignored() {
        let mut inst = instance(1);
        inst.submit(JobId(1), JobKind::Run, SimDuration::from_secs(10), SimTime::ZERO);
        inst.fail(FailureMode::Crash, SimTime::from_secs(5));
        let started = inst.complete(JobId(1), SimTime::from_secs(10));
        assert!(started.is_empty());
        assert!(matches!(inst.job(JobId(1)).unwrap().state(), JobState::Lost { .. }));
    }

    #[test]
    fn install_job_registers_model() {
        let itype = InstanceType::new("test", 1, 4.0, 0.1);
        let mut inst = Instance::new(
            InstanceId(2),
            "campus".to_owned(),
            itype,
            MachineImage::incubator("inc"),
            SimTime::ZERO,
            SimTime::ZERO,
        );
        inst.mark_running();
        assert!(!inst.has_model("fuse"));
        inst.submit(
            JobId(1),
            JobKind::Install { model: "fuse".to_owned() },
            SimDuration::from_secs(90),
            SimTime::ZERO,
        );
        // Incubator penalty stretches the install.
        let finish = SimTime::from_secs_f64(90.0 * 1.35);
        inst.complete(JobId(1), finish);
        assert!(inst.has_model("fuse"));
    }

    #[test]
    fn cpu_utilisation_tracks_slots_and_failures() {
        let mut inst = instance(2);
        assert_eq!(inst.cpu_utilisation(), 0.0);
        inst.submit(JobId(1), JobKind::Run, SimDuration::from_secs(10), SimTime::ZERO);
        assert_eq!(inst.cpu_utilisation(), 0.5);
        inst.fail(FailureMode::Hang, SimTime::from_secs(1));
        assert_eq!(inst.cpu_utilisation(), 1.0);
    }

    #[test]
    fn terminate_releases_capacity_and_loses_jobs() {
        let mut inst = instance(1);
        inst.submit(JobId(1), JobKind::Run, SimDuration::from_secs(10), SimTime::ZERO);
        inst.submit(JobId(2), JobKind::Run, SimDuration::from_secs(10), SimTime::ZERO);
        inst.terminate(SimTime::from_secs(5));
        assert!(!inst.occupies_capacity());
        assert!(inst.jobs().iter().all(|j| matches!(j.state(), JobState::Lost { .. })));
    }

    #[test]
    fn latency_is_submit_to_finish() {
        let mut inst = instance(1);
        inst.submit(JobId(1), JobKind::Run, SimDuration::from_secs(10), SimTime::ZERO);
        inst.submit(JobId(2), JobKind::Run, SimDuration::from_secs(10), SimTime::ZERO);
        inst.complete(JobId(1), SimTime::from_secs(10));
        inst.complete(JobId(2), SimTime::from_secs(20));
        assert_eq!(inst.job(JobId(1)).unwrap().latency(), Some(SimDuration::from_secs(10)));
        assert_eq!(inst.job(JobId(2)).unwrap().latency(), Some(SimDuration::from_secs(20)));
    }

    #[test]
    fn jobs_interleaved_across_instances_are_found_by_id() {
        // One global id counter feeds both instances, as in `CloudSim`,
        // so each instance sees an ascending id sequence with gaps.
        let mut a = instance(1);
        let mut b = instance(1);
        for n in 0..8u64 {
            let inst = if n % 3 == 0 { &mut b } else { &mut a };
            inst.submit(JobId(n), JobKind::Run, SimDuration::from_secs(10), SimTime::ZERO);
        }
        for n in 0..8u64 {
            let (owner, other) = if n % 3 == 0 { (&b, &a) } else { (&a, &b) };
            assert_eq!(owner.job(JobId(n)).map(Job::id), Some(JobId(n)));
            assert!(other.job(JobId(n)).is_none(), "job-{n} belongs to the other instance");
        }
        assert!(a.job(JobId(8)).is_none() && b.job(JobId(8)).is_none());
        // Completion finds the right job and starts the next queued one.
        let next = a.complete(JobId(1), SimTime::from_secs(10));
        assert_eq!(next, vec![(JobId(2), SimTime::from_secs(20))]);
        assert!(matches!(a.job(JobId(1)).map(Job::state), Some(JobState::Completed { .. })));
        // An id the instance never ran completes nothing.
        assert!(a.complete(JobId(3), SimTime::from_secs(20)).is_empty());
        let next = b.complete(JobId(0), SimTime::from_secs(10));
        assert_eq!(next, vec![(JobId(3), SimTime::from_secs(20))]);
    }

    #[test]
    fn pending_instance_defers_jobs_until_boot() {
        let itype = InstanceType::new("test", 1, 4.0, 0.1);
        let mut inst = Instance::new(
            InstanceId(3),
            "campus".to_owned(),
            itype,
            MachineImage::streamlined("img", ["m"]),
            SimTime::ZERO,
            SimTime::from_secs(45),
        );
        let started =
            inst.submit(JobId(1), JobKind::Run, SimDuration::from_secs(10), SimTime::ZERO);
        assert!(started.is_empty(), "job must wait for boot");
        inst.mark_running();
        let started = inst.start_queued(SimTime::from_secs(45));
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].1, SimTime::from_secs(55));
    }
}
