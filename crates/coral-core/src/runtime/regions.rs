//! The regions plane: the federation's topology servers and edge stores
//! (§3.3, §4.2). Every region runs its own topology server and trajectory
//! store. All live region servers process every heartbeat (the direct
//! receiver's link acks it, then every live server handles it in
//! ascending region order), so their MDCS tables and update version
//! counters evolve in lockstep and a camera can re-parent onto any
//! surviving region without version skew.

use super::*;

/// The region whose topology server answers at `endpoint` (the inverse of
/// [`region_endpoint`]); `None` for any other endpoint.
pub(super) fn server_region(endpoint: Endpoint) -> Option<u16> {
    match endpoint {
        Endpoint::TopologyServer => Some(0),
        Endpoint::RegionServer(r) if r > 0 => Some(r),
        _ => None,
    }
}

/// The parentage permit of the region server at `server`: it admits the
/// live cameras whose heartbeats go there, so only a camera's current
/// parent region sends it topology updates.
#[derive(Clone, Copy)]
struct Permit<'a> {
    roster: &'a Roster,
    server: Endpoint,
}

impl Permit<'_> {
    fn admits(self, cam: CameraId) -> bool {
        self.roster.alive.contains(&cam)
            && self
                .roster
                .slot(cam)
                .is_some_and(|slot| self.roster.drivers[slot].parent() == self.server)
    }
}

/// Every region's topology server and store, the replication ingest
/// links, each camera's home region and which regions are partitioned.
pub(super) struct RegionsPlane {
    /// Topology servers, indexed by region. Region 0 answers at
    /// [`Endpoint::TopologyServer`], region `r > 0` at
    /// [`Endpoint::RegionServer`]`(r)` (see [`region_endpoint`]).
    pub(super) servers: Vec<ServerDriver<SimLink>>,
    /// Trajectory stores, indexed by region.
    pub(super) stores: FederatedStores,
    /// Receive links of `Endpoint::EdgeStore(r)` — the replication ingest
    /// points, pulled through the reliability stack so replication sends
    /// are acked, retried, and eventually abandoned against a dead region.
    /// Empty with one region: every handoff is then region-local, so there
    /// is nothing to replicate.
    store_links: Vec<SimLink>,
    /// Camera → home region: the static contiguous-stripe partition. The
    /// current parent region is the driver's heartbeat endpoint (it
    /// diverges from home only while a failover is in effect).
    home: BTreeMap<CameraId, u16>,
    /// Per region, when its partition opened; `None` while it is alive. A
    /// partitioned region's endpoints consume raw and never ack.
    down_since: Vec<Option<SimTime>>,
}

impl RegionsPlane {
    /// The plane over one server driver and one store per region. Each
    /// camera's home region is the one its driver starts parented at.
    pub(super) fn new(
        config: &SystemConfig,
        net: &SimNet,
        obs: &CoreObs,
        servers: Vec<ServerDriver<SimLink>>,
        stores: FederatedStores,
        roster: &Roster,
    ) -> Self {
        let regions = stores.regions();
        assert_eq!(servers.len(), regions, "one topology server per region");
        let home = roster
            .ids
            .iter()
            .zip(&roster.drivers)
            .map(|(&id, driver)| (id, server_region(driver.parent()).unwrap_or(0)))
            .collect();
        let store_links = if regions > 1 {
            (0..regions)
                .map(|r| {
                    let endpoint = Endpoint::EdgeStore(r as u32);
                    build_link(config, net.handle(endpoint), endpoint, obs)
                })
                .collect()
        } else {
            Vec::new()
        };
        Self {
            servers,
            stores,
            store_links,
            home,
            down_since: vec![None; regions],
        }
    }

    /// Whether region `region` exists and is alive.
    pub(super) fn is_alive(&self, region: u16) -> bool {
        self.down_since.get(usize::from(region)) == Some(&None)
    }

    fn home_of(&self, cam: CameraId) -> u16 {
        self.home.get(&cam).copied().unwrap_or(0)
    }

    /// Runs `f` over the owner-preferring union of every region store.
    pub(super) fn with_trajectory_graph<R>(&self, f: impl FnOnce(&TrajectoryGraph) -> R) -> R {
        self.stores.with_union(|c| usize::from(self.home_of(c)), f)
    }

    /// Whether the server or store at `endpoint` can take delivery: it
    /// exists (a single region has no replica ingest point) and its region
    /// is alive.
    pub(super) fn accepts(&self, endpoint: Endpoint) -> bool {
        match endpoint {
            Endpoint::EdgeStore(r) => {
                (r as usize) < self.store_links.len() && self.is_alive(r as u16)
            }
            _ => server_region(endpoint).is_some_and(|r| self.is_alive(r)),
        }
    }

    /// Runs `serve` on every live region server, in ascending region
    /// order, with that server's parentage permit.
    fn each_live_server(
        &mut self,
        roster: &Roster,
        mut serve: impl FnMut(usize, &mut ServerDriver<SimLink>, Permit<'_>),
    ) {
        for (r, server) in self.servers.iter_mut().enumerate() {
            if self.down_since[r].is_none() {
                let permit = Permit {
                    roster,
                    server: server.endpoint(),
                };
                serve(r, server, permit);
            }
        }
    }

    /// Server ingress at the accepting server `endpoint`: one frame is
    /// polled through its reliability stack, which consumes (and
    /// generates) acks, so a due slot may legally yield nothing. With
    /// several regions the receiver refreshes the region-contact gauge.
    /// Then every live server, the receiver included, processes the
    /// payload in ascending region order, so all replicas advance through
    /// the same topology-state machine and stay byte-identical. Update
    /// fan-out is suppressed on replicas by the parentage permit. Returns
    /// the receiving region and the camera of a heartbeat.
    pub(super) fn receive(
        &mut self,
        endpoint: Endpoint,
        roster: &Roster,
        obs: &CoreObs,
        now: SimTime,
    ) -> Option<(u16, CameraId)> {
        let region = server_region(endpoint)?;
        let envelope = self.servers[usize::from(region)]
            .transport_mut()
            .poll(now)?;
        if self.servers.len() > 1 {
            obs.note_region_contact(region, now);
        }
        let last = self
            .down_since
            .iter()
            .rposition(Option::is_none)
            .expect("the receiving region is live");
        let heartbeat = match envelope.message {
            Message::Heartbeat { camera, .. } => Some((region, camera)),
            _ => None,
        };
        // The last live replica takes the envelope itself, so a single
        // region never copies it.
        let mut envelope = Some(envelope);
        self.each_live_server(roster, |r, server, permit| {
            let envelope = if r == last {
                envelope.take()
            } else {
                envelope.clone()
            };
            server
                .on_envelope(envelope.expect("served once"), now, |c| permit.admits(c))
                .expect(SIM_SEND);
        });
        heartbeat
    }

    /// The liveness sweep: every live region server scans at the same
    /// instant, in ascending region order, each sending updates only to the
    /// cameras it currently parents. Because all live servers process the
    /// same heartbeat stream (see [`RegionsPlane::receive`]) their
    /// eviction decisions and version counters agree; the sweep order only
    /// sequences the outgoing update envelopes. Returns the evicted
    /// cameras and the survivors sent updates.
    pub(super) fn sweep(
        &mut self,
        roster: &Roster,
        now: SimTime,
    ) -> (BTreeSet<CameraId>, BTreeSet<CameraId>) {
        let mut removed = BTreeSet::new();
        let mut recipients = BTreeSet::new();
        self.each_live_server(roster, |_, server, permit| {
            // Drive the server link's retransmission timers on the
            // liveness cadence. A no-op on passthrough links.
            server.transport_mut().tick(now);
            let outcome = server
                .check_liveness(now, |c| permit.admits(c))
                .expect(SIM_SEND);
            removed.extend(outcome.removed);
            recipients.extend(outcome.recipients);
        });
        (removed, recipients)
    }

    /// Failover detection, from the camera's own vantage point: when the
    /// reliability layer has `miss_threshold + 1` heartbeat frames still
    /// unacked against the current parent, that region server is
    /// unreachable — re-parent onto the next live region (ascending, with
    /// wrap-around) and start writing events to its store. Requires a live
    /// reliability layer (`SystemConfig::reliability`); passthrough links
    /// never queue, so they never trigger a failover. With no other live
    /// region to adopt the camera (a single region, say), it never fails
    /// over.
    pub(super) fn maybe_fail_over(
        &self,
        driver: &mut NodeDriver<SimLink>,
        miss_threshold: u32,
        obs: &CoreObs,
        now: SimTime,
    ) {
        let Some(current) = server_region(driver.parent()) else {
            return;
        };
        let regions = self.down_since.len() as u16;
        let Some(next) = (1..regions)
            .map(|step| (current + step) % regions)
            .find(|&r| self.is_alive(r))
        else {
            return;
        };
        let pending = driver.transport().pending_len_for(driver.parent()) as u64;
        if pending <= u64::from(miss_threshold) {
            return;
        }
        driver.set_parent(region_endpoint(next));
        driver
            .node_mut()
            .set_storage(self.stores.node(usize::from(next)).clone());
        obs.journal().record(
            JournalKind::HealthChange,
            Severity::Warn,
            now.as_micros(),
            &subject_for(driver.node().id()),
            &format!(
                "failover: {} unacked heartbeats against {}, re-parented to {}",
                pending,
                region_subject(current),
                region_subject(next)
            ),
        );
    }

    /// A re-identification whose upstream camera lives in another region
    /// committed a boundary-crossing edge in camera `id`'s region store.
    /// Replicate it to the upstream home region's store over the same
    /// reliability stack as everything else.
    pub(super) fn replicate(
        &self,
        id: CameraId,
        driver: &mut NodeDriver<SimLink>,
        handoffs: &[HandoffEdge],
        now: SimTime,
    ) {
        if handoffs.is_empty() {
            return;
        }
        let local = self.home_of(id);
        for h in handoffs {
            let up = self.home_of(h.from_camera);
            if up == local {
                continue;
            }
            let envelope = Envelope {
                from: Endpoint::Camera(id),
                to: Endpoint::EdgeStore(u32::from(up)),
                message: Message::Replicate {
                    from: h.from_vertex,
                    event: h.event.clone(),
                    first_ms: h.first_ms,
                    distance: h.distance,
                },
            };
            driver.transport_mut().send(now, envelope).expect(SIM_SEND);
        }
    }

    /// Pulls one replication frame off accepting store `r`'s ingest link
    /// and adopts the edge it carries.
    pub(super) fn ingest(&mut self, r: usize, now: SimTime) {
        let Some(envelope) = self.store_links[r].poll(now) else {
            return;
        };
        let Message::Replicate {
            from,
            event,
            first_ms,
            distance,
        } = envelope.message
        else {
            return;
        };
        let Some(v) = event.vertex else {
            return;
        };
        let store = self.stores.node(r);
        // Keep-first on both writes: redelivery (and delivery after the
        // primary already converged the union) is a structural no-op.
        store.adopt_event(
            v,
            event.event_id(),
            first_ms,
            event.timestamp_ms,
            event.heading,
            Some(event.signature.clone()),
            event.ground_truth,
        );
        let _ = store.insert_edge(from, v, distance);
    }

    /// Partitions a whole region: its topology server and edge store stop
    /// acking (crash-stop), while its cameras keep running — they pile up
    /// unacked heartbeats and fail over onto a surviving region, if any.
    pub(super) fn kill(&mut self, region: u16, now: SimTime, obs: &CoreObs) {
        let Some(state @ None) = self.down_since.get_mut(usize::from(region)) else {
            return;
        };
        *state = Some(now);
        obs.journal().record(
            JournalKind::PartitionOpen,
            Severity::Error,
            now.as_micros(),
            &region_subject(region),
            &format!("region {region} partitioned: topology server and edge store unreachable"),
        );
    }

    /// Heals a region partition. The restarted server adopts a live
    /// replica's topology state (state transfer from the lowest-numbered
    /// surviving region), and the region's home cameras are handed back
    /// administratively — the operator's fail-back, mirroring how the
    /// failover moved them away. Returns the region's recovery record, to
    /// close once each live home camera awaited has heartbeated at the
    /// revived server; `None` unless the region was newly revived.
    pub(super) fn restore(
        &mut self,
        region: u16,
        now: SimTime,
        roster: &mut Roster,
        obs: &CoreObs,
    ) -> Option<(RegionRecovery, BTreeSet<CameraId>)> {
        let r = usize::from(region);
        let killed_at = self.down_since.get_mut(r)?.take()?;
        // State transfer: clone the topology replica of the lowest live
        // region other than the one coming back. (All live replicas are
        // identical, so "lowest" is a convention, not a choice.)
        let donor = (0..self.servers.len()).find(|&d| d != r && self.down_since[d].is_none());
        if let Some(d) = donor {
            let state = self.servers[d].server().clone();
            *self.servers[r].server_mut() = state;
        }
        // Administrative fail-back of the region's home cameras.
        let mut outstanding = BTreeSet::new();
        for (&cam, _) in self.home.iter().filter(|&(_, &h)| h == region) {
            if let Some(slot) = roster.slot(cam) {
                let driver = &mut roster.drivers[slot];
                driver.set_parent(region_endpoint(region));
                driver.node_mut().set_storage(self.stores.node(r).clone());
                if roster.alive.contains(&cam) {
                    outstanding.insert(cam);
                }
            }
        }
        obs.journal().record(
            JournalKind::PartitionHeal,
            Severity::Info,
            now.as_micros(),
            &region_subject(region),
            &format!("region {region} healed: state transferred, home cameras re-parented"),
        );
        let healed = RegionRecovery {
            region,
            killed_at,
            restored_at: now,
            recovered_at: now,
        };
        Some((healed, outstanding))
    }
}
