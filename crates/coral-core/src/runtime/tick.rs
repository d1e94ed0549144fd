//! The tick plane: the camera node's per-frame pipeline (§4.1) over
//! ground-truth traffic. Each frame tick steps the traffic, fans the
//! stepping cameras' analysis across the stepper and commits their frames
//! in `CameraId` order, recording the ground-truth evidence on the way.

use super::*;

/// One camera's per-tick analysis result, carried from the parallel
/// analysis phase to the ordered commit phase.
struct TickAnalysis {
    /// The camera's slot (see [`Roster`]).
    slot: usize,
    analysis: FrameAnalysis,
    /// Ground-truth vehicles currently in the camera's FOV, ascending (for
    /// the edge-triggered passage detector).
    in_fov: Vec<GroundTruthId>,
    /// Wall-clock cost of the analysis (possibly on a worker thread).
    analyze_elapsed: Duration,
}

// The analysis phase moves each camera's driver (and a shared borrow of
// the traffic model) onto stepper workers. These bounds are what make
// that sound; a non-Send field sneaking into the node or transport stack
// fails compilation here rather than at the distant call site.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_sync<T: Sync>() {}
    assert_send::<CameraNode>();
    assert_send::<NodeDriver<SimLink>>();
    assert_sync::<TrafficModel>();
};

/// Traffic, the frame clock and every per-camera tick structure, keyed by
/// camera slot.
pub(super) struct TickPlane {
    /// [`SystemConfig::sparse_stepping`]: step only the cameras that can
    /// have work.
    sparse: bool,
    pub(super) traffic: TrafficModel,
    pub(super) arrivals: Option<PoissonArrivals>,
    last_traffic_step: SimTime,
    /// Ground-truth vehicles in each camera's FOV at its last commit,
    /// ascending. Only non-empty lists are kept, so the keys are the
    /// cameras that may owe an exit edge.
    in_fov: BTreeMap<usize, Vec<GroundTruthId>>,
    pub(super) ground_truth: GroundTruthLog,
    /// Frame ticks run so far: the global frame clock.
    ticks: u64,
    /// Per slot, the tick up to which the node's frame counter has been
    /// brought. Idle cameras are not visited, so their counters catch up
    /// lazily when next stepped or committed (see `TickPlane::sync_frames`).
    frames_synced: Vec<u64>,
    /// Slots whose tracker held live tracks after their last step: they
    /// step every tick even with no vehicle near (sparse stepping).
    tracking: BTreeSet<usize>,
    /// Slots with a clutter burst configured: inside a burst window they
    /// render phantoms with no vehicle near, so they must step.
    clutter: Vec<usize>,
    /// Slots whose link is not quiet ([`Transport::is_quiet`]): a frame
    /// awaits its ack or an envelope is held back, so the link's tick has
    /// work and the camera must be committed.
    busy_links: BTreeSet<usize>,
    /// Vehicle → nearby-camera spatial index for sparse stepping, one slot
    /// per driver.
    occupancy: OccupancyIndex,
    /// Reused per-tick snapshot of all vehicle states (ascending
    /// `VehicleId`), the arena `occupancy` candidate indices point into.
    vehicle_states: Vec<VehicleState>,
    /// Last whole sim-second the health engine was evaluated at, so the
    /// SLO rules run once per sim-second regardless of tick rate.
    last_health_eval_s: u64,
}

impl TickPlane {
    /// The tick plane of `drivers` (in slot order) over `traffic`.
    pub(super) fn new(
        config: &SystemConfig,
        traffic: TrafficModel,
        drivers: &[NodeDriver<SimLink>],
    ) -> Self {
        // Spatial occupancy index for sparse stepping: one slot per driver
        // in `CameraId` order. Dead cameras keep their slot (their
        // candidate lists simply go unread). The anchor slack scales with the
        // traffic speed envelope so fast workloads (IDM city profiles)
        // amortise the cache instead of refreshing it every tick; the
        // superset contract itself is speed-independent (see
        // `coral_sim::occupancy`).
        let slack_m = coral_sim::occupancy::slack_for(
            traffic.config().max_speed_mps(),
            config.frame_period.as_secs_f64(),
        );
        let mut occupancy = OccupancyIndex::new(slack_m);
        for driver in drivers {
            let view = driver.node().view();
            occupancy.add_camera(view.position, view.range_m);
        }
        let clutter = (0..drivers.len())
            .filter(|&slot| {
                let effects = drivers[slot].node().view().effects;
                effects.and_then(|fx| fx.clutter).is_some()
            })
            .collect();
        Self {
            sparse: config.sparse_stepping,
            traffic,
            arrivals: None,
            last_traffic_step: SimTime::ZERO,
            in_fov: BTreeMap::new(),
            ground_truth: GroundTruthLog::new(),
            ticks: 0,
            frames_synced: vec![0; drivers.len()],
            tracking: BTreeSet::new(),
            clutter,
            busy_links: BTreeSet::new(),
            occupancy,
            vehicle_states: Vec::new(),
            last_health_eval_s: 0,
        }
    }

    /// Runs one frame tick at `now`. `on_commit` sees each committed
    /// camera's handoffs right after its frame is committed, before its
    /// link is ticked.
    pub(super) fn run(
        &mut self,
        now: SimTime,
        config: &SystemConfig,
        roster: &mut Roster,
        obs: &CoreObs,
        telemetry: &mut Telemetry,
        mut on_commit: impl FnMut(CameraId, &mut NodeDriver<SimLink>, &[HandoffEdge]),
    ) {
        let tick_start = Instant::now();
        let dt = now.since(self.last_traffic_step);
        // Workload arrivals, then kinematics.
        if let Some(arrivals) = &mut self.arrivals {
            arrivals.advance(now, &mut self.traffic);
        }
        self.traffic.step(self.last_traffic_step, dt);
        self.last_traffic_step = now;

        let now_ms = now.as_millis();

        // Snapshot the vehicle states once (ascending `VehicleId`, into a
        // reused arena): the ground-truth FOV sets are computed from this
        // snapshot regardless of stepping mode. Under sparse stepping the
        // spatial occupancy index is refreshed from it too; each camera's
        // candidate list is a superset of the vehicles its scene
        // projection could accept, so filtering the snapshot through it is
        // order- and content-identical to scanning the whole traffic model.
        let sparse = self.sparse;
        self.traffic.states_into(&mut self.vehicle_states);
        if sparse {
            self.occupancy.assign(&self.vehicle_states);
        }

        let tick = self.ticks;
        self.ticks += 1;

        // Phase 1 — analysis fan-out. Scene projection reads only the
        // traffic model (immutable for the rest of the tick) and the frame
        // analysis mutates only camera-private state, so every stepping
        // camera's render → detect → SORT → feature-extract chain fans
        // across the stepper's workers. Results merge back in `CameraId`
        // order regardless of worker scheduling, which is what keeps
        // parallel runs byte-identical to sequential ones (DESIGN.md §5).
        //
        // Dense stepping steps every alive camera. Sparse stepping steps
        // only the cameras that can have work (`sparse_step_set`) and does
        // not visit the others at all: an idle camera's frame would be the
        // empty-scene fast path (no scene, no RNG draws; see
        // `CameraNode::advance_idle_frame`), so all it owes is a frame
        // counter, which catches up when the camera is next touched
        // (`claim_frame`). A camera with live tracks but no candidates
        // still runs the full path on an empty scene, because tracker aging
        // and the detector's clutter draws must advance exactly as in a
        // dense run.
        let stepping: Vec<usize> = if sparse {
            self.sparse_step_set(roster, now_ms)
        } else {
            roster.alive.iter().map(|&id| roster.slot_of(id)).collect()
        };
        for &slot in &stepping {
            self.claim_frame(slot, tick, &mut roster.drivers[slot]);
        }
        let stepper = Stepper::new(config.parallelism);
        let (active, step_stats) = {
            let traffic = &self.traffic;
            let occupancy = &self.occupancy;
            let states = &self.vehicle_states;
            let batch: Vec<(usize, &mut NodeDriver<SimLink>)> = stepping
                .iter()
                .copied()
                .zip(pick_mut(&mut roster.drivers, &stepping))
                .collect();
            stepper.run(batch, |_, (slot, driver)| {
                // Under sparse stepping, the camera's candidate
                // vehicle-state indices.
                let candidates = sparse.then(|| occupancy.candidates(slot));
                let scene = match candidates {
                    Some(c) => driver
                        .node()
                        .view()
                        .scene_from_states_at(c.iter().map(|&i| &states[i as usize]), now_ms),
                    None => driver.node().view().scene_at(traffic, now_ms),
                };
                let start = Instant::now();
                let analysis = driver.node_mut().analyze_frame(&scene);
                // The ground-truth FOV set is geometric — the canonical
                // `in_fov` predicate over real vehicle states — never the
                // rendered actor list. Clutter phantoms feed the vision
                // pipeline but are not ground truth, and an occlusion-
                // culled vehicle *stays* in ground truth (real MOT
                // semantics): the pipeline's failure to see it scores as a
                // miss, not as a hole in the ground-truth record.
                // Both state orders are ascending by vehicle id, so the
                // list comes out sorted.
                let view = driver.node().view();
                let in_fov: Vec<GroundTruthId> = match candidates {
                    Some(c) => c
                        .iter()
                        .map(|&i| &states[i as usize])
                        .filter(|s| view.in_fov(s.position))
                        .map(|s| GroundTruthId(s.id.0))
                        .collect(),
                    None => states
                        .iter()
                        .filter(|s| view.in_fov(s.position))
                        .map(|s| GroundTruthId(s.id.0))
                        .collect(),
                };
                debug_assert!(in_fov.is_sorted_by(|a, b| a < b), "FOV ids ascend");
                TickAnalysis {
                    slot,
                    analysis,
                    in_fov,
                    analyze_elapsed: start.elapsed(),
                }
            })
        };
        if sparse {
            for &slot in &stepping {
                if roster.drivers[slot].node().live_track_count() > 0 {
                    self.tracking.insert(slot);
                } else {
                    self.tracking.remove(&slot);
                }
            }
        }

        // Phase 2 — ordered commit: passages, storage writes, pool
        // re-identification and message sends replay in strict `CameraId`
        // order, interleaved exactly as the sequential loop would. The walk
        // visits the stepped cameras plus the alive idle cameras that still
        // have an effect to commit: a ground-truth exit edge (a non-empty
        // previous FOV set) or a link whose tick has work. Any other idle
        // camera would commit an empty frame and tick a quiet link, both
        // no-ops, so it is skipped and costs nothing.
        let commit_start = Instant::now();
        let mut committing: Vec<usize> = active
            .iter()
            .map(|a| a.slot)
            .chain(self.in_fov.keys().copied())
            .chain(self.busy_links.iter().copied())
            .filter(|&slot| roster.alive.contains(&roster.ids[slot]))
            .collect();
        committing.sort_unstable();
        committing.dedup();
        let activity = TickActivity {
            stepped: active.len(),
            skipped: roster.alive.len() - active.len(),
            committed: committing.len(),
        };
        let mut active = active.into_iter().peekable();
        for &slot in &committing {
            let id = roster.ids[slot];
            let driver = &mut roster.drivers[slot];
            let (analysis, current, analyze_elapsed) = match active.next_if(|a| a.slot == slot) {
                Some(a) => (a.analysis, a.in_fov, a.analyze_elapsed),
                None => {
                    self.claim_frame(slot, tick, driver);
                    let idle = driver.node_mut().advance_idle_frame();
                    (idle, Vec::new(), Duration::ZERO)
                }
            };
            // Ground-truth passage detection (edge-triggered on FOV entry)
            // plus the exit edge for the ground-truth interval log.
            // Both lists ascend, so exits and same-tick entries come out of
            // a merge in id order.
            let prev = self.in_fov.remove(&slot).unwrap_or_default();
            for gt in ascending_difference(&prev, &current) {
                self.ground_truth.record_exit(id, gt, now_ms);
            }
            for gt in ascending_difference(&current, &prev) {
                self.ground_truth.record_entry(id, gt, now_ms);
                let passage = Passage {
                    camera: id,
                    vehicle: gt,
                    entered_ms: now_ms,
                };
                telemetry.passages.push(passage);
                obs.observe_passage(&passage);
            }
            if !current.is_empty() {
                self.in_fov.insert(slot, current);
            }

            // Raw detection evidence for the evaluation layer's per-stage
            // error attribution (detect-miss vs. track-loss). Phantom
            // detections are excluded: they are noise the tracker must
            // survive, not evidence about any real vehicle.
            for &gt in analysis.detected() {
                if gt.is_clutter() {
                    continue;
                }
                telemetry.detections.push((id, gt, now));
            }

            let out = driver
                .commit(analysis, analyze_elapsed, now)
                .expect(SIM_SEND);
            for e in &out.events {
                telemetry.events.push((id, e.ground_truth, now));
            }
            on_commit(id, driver, &out.handoffs);
            // Drive the reliability stack's timers (retransmissions of
            // unacked frames, release of held envelopes). A no-op on
            // passthrough links.
            driver.transport_mut().tick(now);
            self.note_link(slot, driver);
        }
        debug_assert!(active.next().is_none(), "every stepped camera commits");
        obs.note_tick(
            tick_start.elapsed(),
            commit_start.elapsed(),
            &step_stats,
            activity,
        );
        if sparse {
            obs.note_sparse_activity(activity, now);
        }
        // SLO evaluation, once per whole sim-second. Purely observational
        // (reads metric atomics, journals verdict transitions), so it
        // cannot perturb event order or RNG state.
        if config.health_checks {
            let second = now.as_millis() / 1_000;
            if second > self.last_health_eval_s {
                self.last_health_eval_s = second;
                obs.health_tick(now.as_millis());
            }
        }
    }

    /// The cameras that step this tick under sparse stepping, as
    /// ascending slots: the alive cameras with a vehicle candidate, live
    /// tracks, or an active clutter burst. Every other alive camera's
    /// frame is provably the empty-scene fast path.
    fn sparse_step_set(&self, roster: &Roster, now_ms: u64) -> Vec<usize> {
        let bursting = self
            .clutter
            .iter()
            .copied()
            .filter(|&slot| roster.drivers[slot].node().view().clutter_active(now_ms));
        let mut slots: Vec<usize> = self
            .occupancy
            .touched()
            .iter()
            .map(|&slot| slot as usize)
            .chain(self.tracking.iter().copied())
            .chain(bursting)
            .filter(|&slot| roster.alive.contains(&roster.ids[slot]))
            .collect();
        slots.sort_unstable();
        slots.dedup();
        slots
    }

    /// Catches camera `slot`'s lazy frame counter up to tick `upto`: each
    /// tick since its last sync was an alive tick on which the camera was
    /// neither stepped nor committed, that is, an idle frame.
    fn sync_frames(&mut self, slot: usize, upto: u64, driver: &mut NodeDriver<SimLink>) {
        // Dense stepping frames every alive camera on every tick, so its
        // counters are never behind; it stays an independent oracle for
        // this bookkeeping.
        if !self.sparse {
            return;
        }
        let owed = upto
            .checked_sub(self.frames_synced[slot])
            .expect("the frame clock never runs backwards");
        driver.node_mut().skip_idle_frames(owed);
        self.frames_synced[slot] = upto;
    }

    /// Catches camera `slot` up and reserves tick `tick`'s frame for it.
    /// The caller consumes exactly one frame next (an analysis or an idle
    /// frame), so its frame id is the one a dense run would use.
    fn claim_frame(&mut self, slot: usize, tick: u64, driver: &mut NodeDriver<SimLink>) {
        self.sync_frames(slot, tick, driver);
        self.frames_synced[slot] = tick + 1;
    }

    /// Settles the idle frames camera `slot` owes up to the frame clock,
    /// so its node is in the state a dense run leaves it in.
    pub(super) fn settle(&mut self, slot: usize, driver: &mut NodeDriver<SimLink>) {
        self.sync_frames(slot, self.ticks, driver);
    }

    /// Re-reads whether camera `slot`'s link has tick work, after anything
    /// that sent on or polled it.
    pub(super) fn note_link(&mut self, slot: usize, driver: &NodeDriver<SimLink>) {
        if driver.transport().is_quiet() {
            self.busy_links.remove(&slot);
        } else {
            self.busy_links.insert(slot);
        }
    }

    /// A camera died at `now`: it settles the idle frames it owes for the
    /// ticks it was alive, and its ground-truth intervals close (a dead
    /// camera observes nothing; its FOV memory is cleared on restore, so
    /// re-detection reopens them).
    pub(super) fn camera_down(
        &mut self,
        slot: usize,
        driver: &mut NodeDriver<SimLink>,
        now: SimTime,
    ) {
        self.settle(slot, driver);
        self.ground_truth
            .close_camera(driver.node().id(), now.as_millis());
    }

    /// A camera came back: a rebooted camera re-detects whatever is in its
    /// FOV, so its edge-trigger memory is cleared and passages are
    /// re-emitted. Its frame counter resumes here: dead ticks are not
    /// frames.
    pub(super) fn camera_up(&mut self, slot: usize) {
        self.in_fov.remove(&slot);
        self.frames_synced[slot] = self.ticks;
    }
}

/// Disjoint mutable borrows of `items` at the ascending, distinct `slots`,
/// in O(`slots.len()`): the sparse fan-out never walks idle cameras.
fn pick_mut<'a, T>(mut items: &'a mut [T], slots: &[usize]) -> Vec<&'a mut T> {
    let mut base = 0;
    slots
        .iter()
        .map(|&slot| {
            let (picked, rest) = std::mem::take(&mut items)[slot - base..]
                .split_first_mut()
                .expect("slot in range");
            items = rest;
            base = slot + 1;
            picked
        })
        .collect()
}

/// The ids of `a` missing from `b`, ascending; both must ascend strictly.
/// One merge walk: no hashing, no allocation.
fn ascending_difference<'a>(
    a: &'a [GroundTruthId],
    b: &'a [GroundTruthId],
) -> impl Iterator<Item = GroundTruthId> + 'a {
    let mut rest = b;
    a.iter().copied().filter(move |id| {
        let skip = rest.partition_point(|other| other < id);
        rest = &rest[skip..];
        rest.first() != Some(id)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascending_difference_is_the_set_difference_in_order() {
        let ids = |v: &[u64]| v.iter().map(|&i| GroundTruthId(i)).collect::<Vec<_>>();
        let diff = |a: &[u64], b: &[u64]| -> Vec<u64> {
            ascending_difference(&ids(a), &ids(b))
                .map(|g| g.0)
                .collect()
        };
        assert_eq!(diff(&[1, 3, 5, 7], &[2, 3, 4, 7, 9]), [1, 5]);
        assert_eq!(diff(&[2, 3, 4, 7, 9], &[1, 3, 5, 7]), [2, 4, 9]);
        assert_eq!(diff(&[], &[1, 2]), [0u64; 0]);
        assert_eq!(diff(&[1, 2], &[]), [1, 2]);
        assert_eq!(diff(&[4, 8], &[4, 8]), [0u64; 0]);
    }
}
