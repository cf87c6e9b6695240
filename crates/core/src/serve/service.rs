//! Batch service-time model: solo cost from `network_exec`, shared-machine
//! cost from a roofline contention model.
//!
//! Each admitted batch is priced in two steps:
//!
//! 1. **Solo profile.** The batch's network (the tenant's drifted sparsity
//!    at the current drift epoch, padded to a power-of-two batch size) is
//!    actually executed once through the cycle-level simulator at the
//!    instance's thread share. That yields the solo wall cycles plus the
//!    batch's DRAM and L3-fill byte demand. Profiles live in a
//!    [`ProfileTable`] keyed by `(scheme priced, tenant, drift epoch,
//!    padded batch)`. One table serves every cell of one experiment call,
//!    so each profile is simulated once per call, and the discrete-event
//!    loop then replays it thousands of times for free. A degraded batch's
//!    uncompressed fallback is simply the table's [`Scheme::None`] entry,
//!    the same one an uncompressed node uses.
//!
//! 2. **Contention.** Co-resident instances share the machine's DRAM and
//!    NoC budgets. With `k` instances busy, each sees `1/k` of the pool's
//!    bandwidth, so a batch's effective time is the roofline
//!    `max(solo_cycles, k·dram_cycles, k·noc_cycles)` where `dram_cycles`
//!    is the time to move the batch's DRAM bytes at the pool's full
//!    bandwidth (`dram_share` of the machine), and likewise for the NoC.
//!    Compression lowers the byte terms — that, not the modest solo
//!    speedup, is what moves the serving knee.
//!
//! A table is never process-global: the experiments build one per call,
//! so a repeated call prices everything again and a byte-identity check
//! between two calls compares two real pricings.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use serde::{Deserialize, Serialize};
use zcomp_dnn::models::ModelId;
use zcomp_dnn::network::Network;
use zcomp_dnn::sparsity::SparsityModel;
use zcomp_isa::uops::UopTable;
use zcomp_kernels::layer_exec::Scheme;
use zcomp_kernels::network_exec::{run_network, NetworkExecOpts};
use zcomp_sim::config::SimConfig;
use zcomp_sim::engine::Machine;

use super::ServeConfig;

/// Solo cost of one (scheme, tenant, drift-epoch, padded-batch)
/// combination.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServiceProfile {
    /// Wall cycles of the solo run at the instance's thread share.
    pub base_cycles: f64,
    /// DRAM bytes moved by the batch.
    pub dram_bytes: f64,
    /// L3 fill bytes (the NoC-side demand).
    pub noc_bytes: f64,
}

/// Cost of one admitted batch under contention.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchCost {
    /// Simulated service time, nanoseconds.
    pub ns: u64,
    /// Effective / solo cycles (1.0 = no contention stretch).
    pub slowdown: f64,
}

/// Everything a solo profile depends on besides its key. Two configs
/// with equal inputs price every key identically, so they may share a
/// table.
#[derive(Debug, Clone, PartialEq)]
struct PricingInputs {
    model: ModelId,
    sim: SimConfig,
    threads: usize,
    /// Tenant `t` drifts from `seed ^ t`.
    seed: u64,
}

impl PricingInputs {
    fn of(cfg: &ServeConfig) -> PricingInputs {
        PricingInputs {
            model: cfg.model,
            sim: cfg.sim.clone(),
            threads: cfg.threads_per_instance(),
            seed: cfg.seed,
        }
    }
}

/// `(scheme priced, tenant, drift epoch, padded batch)`.
type ProfileKey = (Scheme, usize, usize, usize);

#[derive(Default)]
struct TableState {
    /// Built networks per padded batch size.
    nets: BTreeMap<usize, Arc<Network>>,
    profiles: HashMap<ProfileKey, ServiceProfile>,
    /// `run_network` calls made for this table.
    priced: u64,
    lookups: u64,
}

struct TableInner {
    inputs: PricingInputs,
    state: Mutex<TableState>,
}

/// Solo service profiles of one experiment call, shared by all of its
/// cells and across its sweep threads.
///
/// The table records the pricing inputs it was built for (model,
/// simulated machine, thread share, tenant seed) and admits only
/// configs with the same inputs. Cloning is cheap and shares the table.
///
/// Pricing runs outside the lock. Pricing is deterministic, so two
/// threads that miss on the same key at once only duplicate work, and
/// both get the same profile.
#[derive(Clone)]
pub struct ProfileTable {
    inner: Arc<TableInner>,
}

impl ProfileTable {
    /// An empty table for the pricing inputs of `cfg`.
    pub fn new(cfg: &ServeConfig) -> ProfileTable {
        ProfileTable {
            inner: Arc::new(TableInner {
                inputs: PricingInputs::of(cfg),
                state: Mutex::new(TableState::default()),
            }),
        }
    }

    /// Checks that `cfg` prices exactly like the config this table was
    /// built for.
    ///
    /// # Errors
    ///
    /// Names the first pricing input that differs: `"model"`, `"sim"`,
    /// `"threads_per_instance"` or `"seed"`.
    pub fn admits(&self, cfg: &ServeConfig) -> Result<(), &'static str> {
        let ours = &self.inner.inputs;
        let theirs = PricingInputs::of(cfg);
        if ours.model != theirs.model {
            Err("model")
        } else if ours.sim != theirs.sim {
            Err("sim")
        } else if ours.threads != theirs.threads {
            Err("threads_per_instance")
        } else if ours.seed != theirs.seed {
            Err("seed")
        } else {
            Ok(())
        }
    }

    /// Distinct profiles held.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.state().profiles.len()
    }

    /// `run_network` calls made to fill the table. Equals the number of
    /// distinct profiles unless two threads raced on one key.
    #[cfg(test)]
    pub(crate) fn priced(&self) -> u64 {
        self.state().priced
    }

    /// Profile lookups served, hits and misses alike.
    #[cfg(test)]
    pub(crate) fn lookups(&self) -> u64 {
        self.state().lookups
    }

    /// Adds this table's pricing counters to `registry`.
    #[cfg(feature = "trace")]
    pub(crate) fn record(&self, registry: &mut zcomp_trace::metrics::MetricsRegistry) {
        use zcomp_trace::serve::names;
        let state = self.state();
        registry.incr(names::PROFILES_PRICED, state.priced);
        registry.incr(names::PROFILE_LOOKUPS, state.lookups);
    }

    /// Every update leaves the state whole (one insert or one counter
    /// bump at a time), so a lock poisoned by a panicking cell is still
    /// safe to use.
    fn state(&self) -> MutexGuard<'_, TableState> {
        self.inner
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The solo profile of `key`, simulating it on first use.
    fn profile(&self, key: ProfileKey) -> ServiceProfile {
        let (scheme, tenant, epoch, padded) = key;
        let inputs = &self.inner.inputs;
        let net = {
            let mut state = self.state();
            state.lookups += 1;
            if let Some(&p) = state.profiles.get(&key) {
                return p;
            }
            Arc::clone(
                state
                    .nets
                    .entry(padded)
                    .or_insert_with(|| Arc::new(inputs.model.build(padded))),
            )
        };
        let profile = {
            let _span = zcomp_trace::serve::profile_span();
            let sparsity = SparsityModel::default()
                .for_tenant(inputs.seed ^ tenant as u64)
                .profile(&net, epoch);
            let mut machine = Machine::new(inputs.sim.clone(), UopTable::skylake_x());
            #[cfg(test)]
            RUN_NETWORK_CALLS.with(|calls| calls.set(calls.get() + 1));
            let result = run_network(
                &mut machine,
                &net,
                &sparsity,
                &NetworkExecOpts {
                    scheme,
                    training: false,
                    threads: inputs.threads,
                    ..NetworkExecOpts::default()
                },
            );
            ServiceProfile {
                base_cycles: result.summary.wall_cycles,
                dram_bytes: result.summary.traffic.dram_bytes as f64,
                noc_bytes: result.summary.traffic.l3_fill_bytes as f64,
            }
        };
        let mut state = self.state();
        state.priced += 1;
        *state.profiles.entry(key).or_insert(profile)
    }
}

#[cfg(test)]
thread_local! {
    /// `run_network` calls made by pricing on this thread, so tests can
    /// count the simulations an experiment call really runs.
    pub(crate) static RUN_NETWORK_CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Where solo profiles come from.
enum Backend {
    /// Real cycle-level simulation through a profile table, priced under
    /// `scheme` (fallback batches under [`Scheme::None`]).
    Network { scheme: Scheme, table: ProfileTable },
    /// Fixed profiles per padded batch size — unit-test backend, no
    /// simulator in the loop. Fallback (uncompressed) costs scale the
    /// primary profile by `fallback_scale`.
    Fixed {
        profiles: BTreeMap<usize, ServiceProfile>,
        fallback_scale: f64,
    },
}

/// Service-time model of one serving node: a profile source plus the
/// pool's bandwidth budgets.
pub struct ServiceModel {
    clock_hz: f64,
    /// Pool DRAM bandwidth, bytes per cycle.
    dram_budget: f64,
    /// Pool NoC (aggregate L3 fill) bandwidth, bytes per cycle.
    noc_budget: f64,
    backend: Backend,
}

impl ServiceModel {
    /// Builds the real-network model for `cfg` on a table of its own:
    /// per-tenant drift views of the shared default [`SparsityModel`],
    /// budgets carved out of the Table-1 machine by
    /// `dram_share`/`noc_share`.
    pub fn for_network(cfg: &ServeConfig) -> ServiceModel {
        ServiceModel::with_table(cfg, &ProfileTable::new(cfg))
    }

    /// Like [`ServiceModel::for_network`], but priced through `table`,
    /// which other models may share.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation or `table` does not
    /// [admit](ProfileTable::admits) it.
    pub fn with_table(cfg: &ServeConfig, table: &ProfileTable) -> ServiceModel {
        cfg.validate();
        if let Err(input) = table.admits(cfg) {
            panic!("profile table was built for a different {input}");
        }
        let clock_hz = cfg.sim.clock_hz;
        let dram_budget = cfg.sim.dram.bytes_per_cycle(clock_hz) * cfg.dram_share;
        let noc_budget =
            cfg.sim.l3_bw_bytes_per_cycle_per_core * cfg.sim.cores as f64 * cfg.noc_share;
        ServiceModel {
            clock_hz,
            dram_budget,
            noc_budget,
            backend: Backend::Network {
                scheme: cfg.scheme,
                table: table.clone(),
            },
        }
    }

    /// Test backend: fixed solo profiles per padded batch size.
    pub fn fixed(
        clock_hz: f64,
        dram_budget: f64,
        noc_budget: f64,
        profiles: BTreeMap<usize, ServiceProfile>,
    ) -> ServiceModel {
        ServiceModel {
            clock_hz,
            dram_budget,
            noc_budget,
            backend: Backend::Fixed {
                profiles,
                fallback_scale: 1.0,
            },
        }
    }

    /// Scales the test backend's uncompressed-fallback profiles relative
    /// to the primary ones (no-op for the network backend, which prices
    /// fallback by actually running under [`Scheme::None`]).
    pub fn with_fallback_scale(mut self, scale: f64) -> ServiceModel {
        if let Backend::Fixed { fallback_scale, .. } = &mut self.backend {
            *fallback_scale = scale;
        }
        self
    }

    /// Solo profile for a batch. With `fallback`, prices the batch under
    /// [`Scheme::None`] — the cost of the degraded (uncompressed) service
    /// a faulted stream browns out to.
    fn profile_at(
        &self,
        tenant: usize,
        epoch: usize,
        padded: usize,
        fallback: bool,
    ) -> ServiceProfile {
        match &self.backend {
            Backend::Fixed {
                profiles,
                fallback_scale,
            } => {
                let base = *profiles
                    .get(&padded)
                    .unwrap_or_else(|| panic!("no fixed profile for padded batch {padded}"));
                if fallback {
                    ServiceProfile {
                        base_cycles: base.base_cycles * *fallback_scale,
                        dram_bytes: base.dram_bytes * *fallback_scale,
                        noc_bytes: base.noc_bytes * *fallback_scale,
                    }
                } else {
                    base
                }
            }
            Backend::Network { scheme, table } => {
                let scheme = if fallback { Scheme::None } else { *scheme };
                table.profile((scheme, tenant, epoch, padded))
            }
        }
    }

    /// Cost of a `batch`-request batch for `tenant` at drift `epoch` with
    /// `busy` instances running concurrently (including this one). The
    /// batch is padded to the next power of two for costing.
    pub fn batch_cost(
        &mut self,
        tenant: usize,
        epoch: usize,
        batch: usize,
        busy: usize,
    ) -> BatchCost {
        self.cost_at(tenant, epoch, batch, busy, false)
    }

    /// Cost of the same batch served through the *uncompressed* fallback
    /// path (the brownout a persistently faulted compressed stream
    /// degrades to). Identical contention model, [`Scheme::None`]
    /// profile.
    pub fn fallback_batch_cost(
        &mut self,
        tenant: usize,
        epoch: usize,
        batch: usize,
        busy: usize,
    ) -> BatchCost {
        self.cost_at(tenant, epoch, batch, busy, true)
    }

    fn cost_at(
        &self,
        tenant: usize,
        epoch: usize,
        batch: usize,
        busy: usize,
        fallback: bool,
    ) -> BatchCost {
        assert!(batch >= 1, "empty batch");
        let padded = batch.next_power_of_two();
        let p = self.profile_at(tenant, epoch, padded, fallback);
        let k = busy.max(1) as f64;
        let dram_cycles = p.dram_bytes / self.dram_budget;
        let noc_cycles = p.noc_bytes / self.noc_budget;
        let cycles = p.base_cycles.max(k * dram_cycles).max(k * noc_cycles);
        BatchCost {
            ns: (cycles / self.clock_hz * super::arrival::NS_PER_SEC).round() as u64,
            slowdown: cycles / p.base_cycles,
        }
    }

    /// Solo (uncontended) service time of a padded batch, nanoseconds.
    /// Used to derive SLOs and capacity estimates.
    pub fn solo_ns(&mut self, tenant: usize, epoch: usize, batch: usize) -> u64 {
        self.batch_cost(tenant, epoch, batch, 1).ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed_model(base: f64, dram: f64, noc: f64) -> ServiceModel {
        let mut profiles = BTreeMap::new();
        for padded in [1usize, 2, 4, 8] {
            profiles.insert(
                padded,
                ServiceProfile {
                    base_cycles: base * padded as f64,
                    dram_bytes: dram * padded as f64,
                    noc_bytes: noc * padded as f64,
                },
            );
        }
        // 1 GHz clock, 1 B/cyc budgets: cycles == bytes, easy arithmetic.
        ServiceModel::fixed(1.0e9, 1.0, 1.0, profiles)
    }

    #[test]
    fn uncontended_batch_is_compute_bound() {
        let mut m = fixed_model(1000.0, 100.0, 50.0);
        let c = m.batch_cost(0, 0, 1, 1);
        assert_eq!(c.ns, 1000);
        assert!((c.slowdown - 1.0).abs() < 1e-12);
    }

    #[test]
    fn contention_stretches_bandwidth_bound_batches() {
        // Solo 1000 cycles of compute vs 600 of DRAM: 2 busy instances
        // keep it compute-bound, 4 tip it to 4×600 = 2400.
        let mut m = fixed_model(1000.0, 600.0, 50.0);
        assert_eq!(m.batch_cost(0, 0, 1, 2).ns, 1200);
        let c = m.batch_cost(0, 0, 1, 4);
        assert_eq!(c.ns, 2400);
        assert!((c.slowdown - 2.4).abs() < 1e-12);
    }

    #[test]
    fn batches_are_padded_to_powers_of_two() {
        let mut m = fixed_model(1000.0, 0.0, 0.0);
        // A 3-request batch is costed as a padded 4-batch.
        assert_eq!(m.batch_cost(0, 0, 3, 1).ns, m.batch_cost(0, 0, 4, 1).ns);
    }

    /// A cheap real-simulator node: ResNet-32 profiles price in
    /// milliseconds.
    fn resnet_cfg(scheme: Scheme) -> ServeConfig {
        ServeConfig::new(ModelId::Resnet32, scheme, 4)
    }

    #[test]
    fn table_is_keyed_by_scheme_tenant_epoch_and_padded_batch() {
        let cfg = resnet_cfg(Scheme::Zcomp);
        let table = ProfileTable::new(&cfg);
        let mut m = ServiceModel::with_table(&cfg, &table);
        m.batch_cost(0, 0, 1, 1);
        m.batch_cost(1, 1, 1, 1);
        m.batch_cost(0, 0, 2, 1);
        m.batch_cost(0, 0, 1, 3); // contention does not change the key
        m.fallback_batch_cost(0, 0, 1, 1);
        assert_eq!(table.len(), 4);
        // An uncompressed node on the same table finds the fallback
        // entry already priced.
        let mut plain = ServiceModel::with_table(&resnet_cfg(Scheme::None), &table);
        plain.batch_cost(0, 0, 1, 1);
        assert_eq!(table.len(), 4);
        assert_eq!(table.priced(), 4);
        assert_eq!(table.lookups(), 6);
    }

    #[test]
    fn fallback_pricing_equals_uncompressed_pricing_bit_for_bit() {
        // Separate tables, so each side really runs its own simulation.
        let zcomp_cfg = resnet_cfg(Scheme::Zcomp);
        let none_cfg = resnet_cfg(Scheme::None);
        let mut degraded = ServiceModel::for_network(&zcomp_cfg);
        let mut plain = ServiceModel::for_network(&none_cfg);
        for tenant in 0..zcomp_cfg.tenants.len() {
            for epoch in 0..zcomp_cfg.drift_epochs {
                for padded in [1, 2, 4] {
                    let fb = degraded.profile_at(tenant, epoch, padded, true);
                    let un = plain.profile_at(tenant, epoch, padded, false);
                    let bits = |p: ServiceProfile| {
                        [p.base_cycles, p.dram_bytes, p.noc_bytes].map(f64::to_bits)
                    };
                    assert_eq!(
                        bits(fb),
                        bits(un),
                        "tenant {tenant} epoch {epoch} b{padded}"
                    );
                    for busy in [1, 4] {
                        let a = degraded.fallback_batch_cost(tenant, epoch, padded, busy);
                        let b = plain.batch_cost(tenant, epoch, padded, busy);
                        assert_eq!(a.ns, b.ns);
                        assert_eq!(a.slowdown.to_bits(), b.slowdown.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn table_refuses_configs_that_price_differently() {
        let cfg = resnet_cfg(Scheme::Zcomp);
        let table = ProfileTable::new(&cfg);
        // Scheme, tenant count and SLO knobs are not pricing inputs.
        let mut same = resnet_cfg(Scheme::None);
        same.tenants.truncate(1);
        same.slo_ns = 1;
        assert_eq!(table.admits(&same), Ok(()));

        let mut seed = cfg.clone();
        seed.seed ^= 1;
        assert_eq!(table.admits(&seed), Err("seed"));
        let model = ServeConfig::new(ModelId::Alexnet, Scheme::Zcomp, 4);
        assert_eq!(table.admits(&model), Err("model"));
        let mut threads = cfg.clone();
        threads.instances = 2;
        assert_eq!(table.admits(&threads), Err("threads_per_instance"));
        let mut sim = cfg.clone();
        sim.sim.clock_hz *= 2.0;
        assert_eq!(table.admits(&sim), Err("sim"));
    }

    #[test]
    #[should_panic(expected = "different seed")]
    fn model_on_a_foreign_table_panics() {
        let cfg = resnet_cfg(Scheme::Zcomp);
        let table = ProfileTable::new(&cfg);
        let mut other = cfg.clone();
        other.seed ^= 1;
        ServiceModel::with_table(&other, &table);
    }
}
