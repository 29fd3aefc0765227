//! User sessions and the push channel to the browser.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use evop_cloud::InstanceId;
use evop_obs::TraceContext;
use evop_services::push::{duplex_pair, Endpoint, Message};
use evop_sim::SimTime;
use serde_json::json;

/// A unique user-session identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub(crate) u64);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "session-{}", self.0)
    }
}

/// Lifecycle of a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Waiting for an instance (one may be booting for it).
    Waiting,
    /// Bound to an instance and serving.
    Active,
    /// Closed by the user.
    Closed,
}

/// One user's connection to a modelling widget.
///
/// Because EVOp services are stateless REST (paper §IV-B), a session holds
/// *routing* state only — which instance currently serves the user — never
/// computational state; that is why migration loses nothing.
#[derive(Debug)]
pub struct UserSession {
    id: SessionId,
    // `Box<str>` rather than `String`: sessions are immutable after open,
    // and at federation scale (see `evop-shard`) every unused capacity
    // word is a megabyte per hundred thousand sessions.
    user: Box<str>,
    model: Box<str>,
    state: SessionState,
    instance: Option<InstanceId>,
    connected_at: SimTime,
    activated_at: Option<SimTime>,
    migrations: u32,
    server_end: Endpoint,
    client_end: Endpoint,
    trace: Option<TraceContext>,
}

impl UserSession {
    pub(crate) fn new(id: SessionId, user: &str, model: &str, now: SimTime) -> UserSession {
        let (server_end, client_end) = duplex_pair();
        UserSession {
            id,
            user: user.into(),
            model: model.into(),
            state: SessionState::Waiting,
            instance: None,
            connected_at: now,
            activated_at: None,
            migrations: 0,
            server_end,
            client_end,
            trace: None,
        }
    }

    /// The session id.
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// The connected user.
    pub fn user(&self) -> &str {
        &self.user
    }

    /// The model this session's widget drives.
    pub fn model(&self) -> &str {
        &self.model
    }

    /// Lifecycle state.
    pub fn state(&self) -> SessionState {
        self.state
    }

    /// The instance currently serving the session, if assigned.
    pub fn instance(&self) -> Option<InstanceId> {
        self.instance
    }

    /// When the user connected.
    pub fn connected_at(&self) -> SimTime {
        self.connected_at
    }

    /// When the session first got a running instance.
    pub fn activated_at(&self) -> Option<SimTime> {
        self.activated_at
    }

    /// Wait from connect to first service, if activated.
    pub fn activation_wait(&self) -> Option<evop_sim::SimDuration> {
        self.activated_at.map(|t| t.saturating_since(self.connected_at))
    }

    /// How many times the session was migrated between instances.
    pub fn migrations(&self) -> u32 {
        self.migrations
    }

    /// The trace context this session's server-side work reports under,
    /// when the broker is tracing.
    pub fn trace_context(&self) -> Option<TraceContext> {
        self.trace
    }

    pub(crate) fn set_trace_context(&mut self, ctx: TraceContext) {
        self.trace = Some(ctx);
    }

    /// The browser-side endpoint: widgets read pushed updates here.
    pub fn client_channel(&self) -> &Endpoint {
        &self.client_end
    }

    fn assign(&mut self, instance: InstanceId, now: SimTime, is_migration: bool) {
        let previous = self.instance.replace(instance);
        if self.state == SessionState::Waiting {
            self.state = SessionState::Active;
            // First activation only: a rebind after a requeue keeps the
            // original time-to-first-service.
            if self.activated_at.is_none() {
                self.activated_at = Some(now);
            }
        }
        if is_migration {
            self.migrations += 1;
        }
        let mut payload = json!({
            "session": self.id.to_string(),
            "instance": instance.to_string(),
            "previous": previous.map(|p| p.to_string()),
            "migration": is_migration,
            "at": now.as_millis(),
        });
        // Carry the trace context on the push, so the browser-side widget
        // can correlate the update with the server-side timeline.
        if let Some(ctx) = &self.trace {
            if let Some(map) = payload.as_object_mut() {
                map.insert("trace_id".to_owned(), json!(ctx.trace_id.to_string()));
                map.insert("span_id".to_owned(), json!(ctx.span_id.to_string()));
            }
        }
        let _ = self.server_end.send(Message::new("session-update", payload));
    }

    /// Detaches the session from a lost instance and requeues it for
    /// binding: routing state goes back to `Waiting`, and the client is
    /// told its instance is gone so the widget can show a reconnecting
    /// state instead of talking to a dead address.
    fn unbind(&mut self, now: SimTime) {
        if self.state != SessionState::Active {
            return;
        }
        let previous = self.instance.take();
        self.state = SessionState::Waiting;
        let mut payload = json!({
            "session": self.id.to_string(),
            "instance": serde_json::Value::Null,
            "previous": previous.map(|p| p.to_string()),
            "requeued": true,
            "at": now.as_millis(),
        });
        if let Some(ctx) = &self.trace {
            if let Some(map) = payload.as_object_mut() {
                map.insert("trace_id".to_owned(), json!(ctx.trace_id.to_string()));
                map.insert("span_id".to_owned(), json!(ctx.span_id.to_string()));
            }
        }
        let _ = self.server_end.send(Message::new("session-update", payload));
    }

    fn close(&mut self) {
        self.state = SessionState::Closed;
        self.instance = None;
        self.server_end.close();
    }
}

/// Session counts per lifecycle state. A named field per state rather
/// than a slot-indexed array keeps every access panic-free.
#[derive(Debug, Default)]
struct StateCounts {
    waiting: usize,
    active: usize,
    closed: usize,
}

impl StateCounts {
    fn get(&self, state: SessionState) -> usize {
        match state {
            SessionState::Waiting => self.waiting,
            SessionState::Active => self.active,
            SessionState::Closed => self.closed,
        }
    }

    fn slot(&mut self, state: SessionState) -> &mut usize {
        match state {
            SessionState::Waiting => &mut self.waiting,
            SessionState::Active => &mut self.active,
            SessionState::Closed => &mut self.closed,
        }
    }
}

/// The registry of all sessions.
///
/// State transitions go through the registry ([`SessionRegistry::assign`],
/// [`SessionRegistry::unbind`], [`SessionRegistry::close`]) rather than
/// the session itself, so the registry can keep per-state and
/// per-instance indexes exact. That turns [`SessionRegistry::load`],
/// [`SessionRegistry::count`] and [`SessionRegistry::waiting`] from
/// full-registry scans into index reads — the difference between the
/// control loop being O(sessions × instances) and O(touched) per tick,
/// which is what lets a broker shard carry tens of thousands of live
/// sessions through a million-user day (see `evop-shard`).
#[derive(Debug, Default)]
pub struct SessionRegistry {
    sessions: BTreeMap<SessionId, UserSession>,
    next: u64,
    /// Active sessions per instance, ascending id within each instance.
    active_on: BTreeMap<InstanceId, BTreeSet<SessionId>>,
    /// Waiting sessions, ascending id (ids are monotonic, so this is
    /// oldest-first — the order `waiting()` always promised).
    waiting: BTreeSet<SessionId>,
    /// Session counts per lifecycle state.
    counts: StateCounts,
    /// Sessions that entered `Closed` since the last reap, so reaping
    /// touches only them rather than every live session.
    closed: Vec<SessionId>,
}

impl SessionRegistry {
    /// Creates an empty registry.
    pub fn new() -> SessionRegistry {
        SessionRegistry::default()
    }

    /// Opens a new session.
    pub fn open(&mut self, user: &str, model: &str, now: SimTime) -> SessionId {
        let id = SessionId(self.next);
        self.next += 1;
        self.sessions.insert(id, UserSession::new(id, user, model, now));
        self.waiting.insert(id);
        *self.counts.slot(SessionState::Waiting) += 1;
        id
    }

    /// A session by id.
    pub fn get(&self, id: SessionId) -> Option<&UserSession> {
        self.sessions.get(&id)
    }

    /// A mutable session by id. Lifecycle transitions are not reachable
    /// from here — use [`SessionRegistry::assign`] and friends, which
    /// keep the indexes exact.
    pub fn get_mut(&mut self, id: SessionId) -> Option<&mut UserSession> {
        self.sessions.get_mut(&id)
    }

    /// All sessions.
    pub fn iter(&self) -> impl Iterator<Item = &UserSession> {
        self.sessions.values()
    }

    /// Binds `id` to `instance` (activating a waiting session, or moving
    /// an active one when `is_migration`). Returns `false` for an
    /// unknown session.
    pub fn assign(
        &mut self,
        id: SessionId,
        instance: InstanceId,
        now: SimTime,
        is_migration: bool,
    ) -> bool {
        let Some(before) = self.sessions.get(&id).map(|s| (s.state(), s.instance())) else {
            return false;
        };
        if let Some(s) = self.sessions.get_mut(&id) {
            s.assign(instance, now, is_migration);
        }
        self.reindex(id, before);
        true
    }

    /// Requeues `id` after its instance was lost: back to `Waiting`.
    /// Returns `false` for an unknown session.
    pub fn unbind(&mut self, id: SessionId, now: SimTime) -> bool {
        let Some(before) = self.sessions.get(&id).map(|s| (s.state(), s.instance())) else {
            return false;
        };
        if let Some(s) = self.sessions.get_mut(&id) {
            s.unbind(now);
        }
        self.reindex(id, before);
        true
    }

    /// Closes `id`. Returns `false` for an unknown session.
    pub fn close(&mut self, id: SessionId) -> bool {
        let Some(before) = self.sessions.get(&id).map(|s| (s.state(), s.instance())) else {
            return false;
        };
        if let Some(s) = self.sessions.get_mut(&id) {
            s.close();
        }
        self.reindex(id, before);
        true
    }

    /// Repairs the indexes for `id` after a lifecycle mutation, given the
    /// `(state, instance)` pair observed before it.
    fn reindex(&mut self, id: SessionId, before: (SessionState, Option<InstanceId>)) {
        let Some(after) = self.sessions.get(&id).map(|s| (s.state(), s.instance())) else {
            return;
        };
        if before == after {
            return;
        }
        match before {
            (SessionState::Waiting, _) => {
                self.waiting.remove(&id);
            }
            (SessionState::Active, Some(instance)) => {
                if let Some(set) = self.active_on.get_mut(&instance) {
                    set.remove(&id);
                    if set.is_empty() {
                        self.active_on.remove(&instance);
                    }
                }
            }
            _ => {}
        }
        match after {
            (SessionState::Waiting, _) => {
                self.waiting.insert(id);
            }
            (SessionState::Active, Some(instance)) => {
                self.active_on.entry(instance).or_default().insert(id);
            }
            _ => {}
        }
        if before.0 != after.0 {
            let slot = self.counts.slot(before.0);
            *slot = slot.saturating_sub(1);
            *self.counts.slot(after.0) += 1;
            if after.0 == SessionState::Closed {
                self.closed.push(id);
            }
        }
    }

    /// Sessions currently bound to `instance`, ascending id.
    pub fn on_instance(&self, instance: InstanceId) -> Vec<SessionId> {
        self.active_on.get(&instance).map(|set| set.iter().copied().collect()).unwrap_or_default()
    }

    /// Number of active sessions per instance. An index read, not a scan.
    pub fn load(&self, instance: InstanceId) -> usize {
        self.active_on.get(&instance).map_or(0, BTreeSet::len)
    }

    /// Sessions waiting for an instance, oldest first.
    pub fn waiting(&self) -> Vec<SessionId> {
        self.waiting.iter().copied().collect()
    }

    /// Count of sessions in a state. An index read, not a scan.
    pub fn count(&self, state: SessionState) -> usize {
        self.counts.get(state)
    }

    /// Drops every closed session, returning how many were reaped.
    ///
    /// Closed sessions are kept queryable by default (experiment harnesses
    /// read their final state), so eviction is explicit: long-running
    /// serving planes call this periodically to keep the registry's
    /// footprint proportional to *live* sessions rather than total
    /// arrivals — the difference between megabytes and gigabytes over a
    /// million-user day.
    pub fn reap_closed(&mut self) -> usize {
        let mut reaped = 0;
        for id in self.closed.drain(..) {
            if self.sessions.remove(&id).is_some() {
                reaped += 1;
            }
        }
        self.counts.closed = 0;
        reaped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Sessions in `state`, counted by walking the registry.
    fn recount(reg: &SessionRegistry, state: SessionState) -> usize {
        reg.iter().filter(|s| s.state() == state).count()
    }

    proptest! {
        #[test]
        fn reap_removes_exactly_the_closed_sessions(
            ops in proptest::collection::vec((0u8..6, 0usize..64, 0u64..4), 1..200),
        ) {
            let mut reg = SessionRegistry::new();
            let mut opened = Vec::new();
            for (step, (kind, pick, instance)) in ops.into_iter().enumerate() {
                let now = SimTime::from_secs(step as u64);
                let target = opened.get(pick % opened.len().max(1)).copied();
                match (kind, target) {
                    (0, _) | (_, None) => opened.push(reg.open("u", "topmodel", now)),
                    (1, Some(id)) => {
                        reg.assign(id, InstanceId::from_raw(instance), now, instance % 2 == 0);
                    }
                    (2, Some(id)) => {
                        reg.unbind(id, now);
                    }
                    (3 | 4, Some(id)) => {
                        reg.close(id);
                    }
                    (_, Some(_)) => {
                        // What a `retain` over every session would reap and keep.
                        let (closed, live): (Vec<_>, Vec<_>) =
                            reg.iter().partition(|s| s.state() == SessionState::Closed);
                        let ids = |v: Vec<&UserSession>| -> Vec<SessionId> {
                            v.into_iter().map(UserSession::id).collect()
                        };
                        let (closed, live) = (ids(closed), ids(live));
                        prop_assert_eq!(reg.reap_closed(), closed.len());
                        prop_assert_eq!(reg.iter().map(UserSession::id).collect::<Vec<_>>(), live);
                        prop_assert!(closed.iter().all(|&id| reg.get(id).is_none()));
                    }
                }
                for state in [SessionState::Waiting, SessionState::Active, SessionState::Closed] {
                    prop_assert_eq!(reg.count(state), recount(&reg, state));
                }
            }
        }
    }

    #[test]
    fn open_assign_close_lifecycle() {
        let mut reg = SessionRegistry::new();
        let id = reg.open("alice", "topmodel", SimTime::ZERO);
        assert_eq!(reg.get(id).unwrap().state(), SessionState::Waiting);
        assert_eq!(reg.count(SessionState::Waiting), 1);

        reg.assign(id, InstanceId::from_raw(3), SimTime::from_secs(60), false);
        let s = reg.get(id).unwrap();
        assert_eq!(s.state(), SessionState::Active);
        assert_eq!(s.activation_wait(), Some(evop_sim::SimDuration::from_secs(60)));
        assert_eq!(s.migrations(), 0);

        reg.close(id);
        assert_eq!(reg.get(id).unwrap().state(), SessionState::Closed);
        assert_eq!(reg.get(id).unwrap().instance(), None);
    }

    #[test]
    fn assignment_pushes_update_to_client() {
        let mut reg = SessionRegistry::new();
        let id = reg.open("bob", "fuse", SimTime::ZERO);
        reg.assign(id, InstanceId::from_raw(7), SimTime::from_secs(5), false);
        let msg = reg.get(id).unwrap().client_channel().try_recv().unwrap();
        assert_eq!(msg.topic(), "session-update");
        assert_eq!(msg.payload()["migration"], false);
    }

    #[test]
    fn migration_increments_counter_and_reports_previous() {
        let mut reg = SessionRegistry::new();
        let id = reg.open("carol", "topmodel", SimTime::ZERO);
        reg.assign(id, InstanceId::from_raw(1), SimTime::from_secs(1), false);
        reg.assign(id, InstanceId::from_raw(2), SimTime::from_secs(9), true);
        let s = reg.get(id).unwrap();
        assert_eq!(s.migrations(), 1);
        let updates = s.client_channel().drain();
        assert_eq!(updates.len(), 2);
        assert_eq!(updates[1].payload()["migration"], true);
        assert!(updates[1].payload()["previous"].as_str().unwrap().contains("i-"));
    }

    #[test]
    fn per_instance_load_accounting() {
        let mut reg = SessionRegistry::new();
        let a = reg.open("u1", "topmodel", SimTime::ZERO);
        let b = reg.open("u2", "topmodel", SimTime::ZERO);
        let c = reg.open("u3", "topmodel", SimTime::ZERO);
        let inst = InstanceId::from_raw(1);
        reg.assign(a, inst, SimTime::ZERO, false);
        reg.assign(b, inst, SimTime::ZERO, false);
        reg.assign(c, InstanceId::from_raw(2), SimTime::ZERO, false);
        assert_eq!(reg.load(inst), 2);
        assert_eq!(reg.load(InstanceId::from_raw(2)), 1);
        reg.close(a);
        assert_eq!(reg.load(inst), 1);
    }

    #[test]
    fn unbind_requeues_and_notifies_client() {
        let mut reg = SessionRegistry::new();
        let id = reg.open("dave", "topmodel", SimTime::ZERO);
        reg.assign(id, InstanceId::from_raw(4), SimTime::from_secs(2), false);
        reg.unbind(id, SimTime::from_secs(9));
        let s = reg.get(id).unwrap();
        assert_eq!(s.state(), SessionState::Waiting);
        assert_eq!(s.instance(), None);
        let updates = s.client_channel().drain();
        assert_eq!(updates.len(), 2);
        assert_eq!(updates[1].payload()["requeued"], true);
        assert!(updates[1].payload()["instance"].is_null());

        // Rebinding after a requeue keeps the original activation time.
        reg.assign(id, InstanceId::from_raw(5), SimTime::from_secs(20), false);
        let s = reg.get(id).unwrap();
        assert_eq!(s.state(), SessionState::Active);
        assert_eq!(s.activation_wait(), Some(evop_sim::SimDuration::from_secs(2)));
    }

    #[test]
    fn waiting_lists_unassigned() {
        let mut reg = SessionRegistry::new();
        let a = reg.open("u1", "topmodel", SimTime::ZERO);
        let b = reg.open("u2", "topmodel", SimTime::ZERO);
        assert_eq!(reg.waiting(), vec![a, b]);
        reg.assign(a, InstanceId::from_raw(1), SimTime::ZERO, false);
        assert_eq!(reg.waiting(), vec![b]);
    }

    #[test]
    fn session_identity_fields_carry_no_capacity_word() {
        // The broker holds one UserSession per connected user, so at E8
        // scale every byte of this struct is a megabyte of directory.
        // `Box<str>` identity fields are two words against `String`'s
        // three; pin the saving so a convenient `.to_string()` refactor
        // doesn't quietly grow the per-session footprint back.
        assert_eq!(
            std::mem::size_of::<String>() - std::mem::size_of::<Box<str>>(),
            8,
            "String carries a capacity word Box<str> does not"
        );
        // The same layout with String identity fields, as it was before
        // the federation work: two capacity words fatter per session —
        // 16 bytes, ~16 MB across an E8 million-user day.
        #[allow(dead_code)]
        struct FatUserSession {
            id: SessionId,
            user: String,
            model: String,
            state: SessionState,
            instance: Option<InstanceId>,
            connected_at: SimTime,
            activated_at: Option<SimTime>,
            migrations: u32,
            server_end: Endpoint,
            client_end: Endpoint,
            trace: Option<TraceContext>,
        }
        assert_eq!(std::mem::size_of::<FatUserSession>() - std::mem::size_of::<UserSession>(), 16);
    }
}
