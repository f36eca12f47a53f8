//! The trajectory-mode policies: SEQ, ITS, CTS1, CTS2 and ATS.
//!
//! All five modes share one master data structure (Fig. 2: per slave a
//! strategy, an initial solution, the B best solutions and a score) and one
//! [`FarmPolicy`] implementation; they differ only in which of its switches
//! are on:
//!
//! | mode | workers | rounds | ISP | SGP |
//! |------|---------|--------|-----|-----|
//! | SEQ  | 1       | 1      |  —  |  —  |
//! | ITS  | P       | 1      |  —  |  —  |
//! | CTS1 | P       | R      |  ✓  |  —  |
//! | CTS2 | P       | R      |  ✓  |  ✓  |
//! | ATS  | P       | R      |  ✓  |  ✓  |
//!
//! CTS2 is the paper's contribution: cooperation (the master's initial
//! solution procedure, ISP) *plus* dynamic strategy tuning (the strategy
//! generation procedure, SGP). ATS keeps the label of the paper's §6
//! asynchronous extension, which is not implemented: it runs CTS2's
//! switches on the same synchronous round loop, so its results are
//! CTS2's bit for bit. The round loop itself lives in [`crate::engine`];
//! this module only decides what to assign and how to digest reports.

use crate::engine::{assignment_seed, CoopPolicy};
use crate::isp::IspState;
use crate::messages::{pack_bits, unpack_bits, AssignMsg, ReportMsg};
use crate::runner::{Mode, RunConfig};
use crate::score::Score;
use crate::sgp::{elite_dispersion, next_strategy};

use mkp::greedy::dynamic_randomized_greedy;
use mkp::{Instance, Solution, Xoshiro256};
use mkp_tabu::{Strategy, StrategyBounds};
use pvm_lite::codec::{CodecError, PackBuffer, UnpackBuffer};

/// The shared policy behind every trajectory mode (see the module table).
pub struct FarmPolicy {
    mode: Mode,
    /// Exchange solutions through the master's ISP.
    cooperate: bool,
    /// Tune strategies with the SGP.
    adaptive: bool,
    /// Fold the whole budget into a single round (SEQ/ITS).
    one_round: bool,
    /// Drive a single worker regardless of `cfg.p` (SEQ).
    solo: bool,

    // Master data structure, one entry per slave (Fig. 2).
    strategies: Vec<Strategy>,
    initials: Vec<Solution>,
    scores: Vec<Score>,
    isp_states: Vec<IspState>,
    /// Per-slave best-so-far; the SGP scores a round as improving only when
    /// the slave beat its own previous best (scoring against the round's
    /// initial value would award every post-restart round a free point and
    /// the zero-score regeneration would never fire).
    prev_best: Vec<i64>,
}

impl FarmPolicy {
    fn new(mode: Mode) -> Self {
        FarmPolicy {
            mode,
            cooperate: false,
            adaptive: false,
            one_round: false,
            solo: false,
            strategies: Vec::new(),
            initials: Vec::new(),
            scores: Vec::new(),
            isp_states: Vec::new(),
            prev_best: Vec::new(),
        }
    }

    /// SEQ — one worker, one round, the entire budget, randomly drawn
    /// strategy and start (the paper's baseline).
    pub fn sequential() -> Self {
        FarmPolicy {
            solo: true,
            one_round: true,
            ..FarmPolicy::new(Mode::Sequential)
        }
    }

    /// ITS — P independent workers, one fat round, no communication.
    pub fn independent() -> Self {
        FarmPolicy {
            one_round: true,
            ..FarmPolicy::new(Mode::Independent)
        }
    }

    /// CTS1 — cooperation via the ISP, strategies fixed.
    pub fn cooperative() -> Self {
        FarmPolicy {
            cooperate: true,
            ..FarmPolicy::new(Mode::Cooperative)
        }
    }

    /// CTS2 — cooperation plus dynamic strategy tuning (ISP + SGP).
    pub fn cooperative_adaptive() -> Self {
        FarmPolicy {
            cooperate: true,
            adaptive: true,
            ..FarmPolicy::new(Mode::CooperativeAdaptive)
        }
    }

    /// ATS — CTS2's switches under the ATS label (see the module docs).
    pub fn asynchronous() -> Self {
        FarmPolicy {
            cooperate: true,
            adaptive: true,
            ..FarmPolicy::new(Mode::Asynchronous)
        }
    }
}

impl CoopPolicy for FarmPolicy {
    fn mode(&self) -> Mode {
        self.mode
    }

    fn active_workers(&self, cfg: &RunConfig) -> usize {
        if self.solo {
            1
        } else {
            cfg.p
        }
    }

    fn rounds(&self, cfg: &RunConfig) -> usize {
        if self.one_round {
            1
        } else {
            cfg.rounds
        }
    }

    fn relink(&self, cfg: &RunConfig) -> bool {
        cfg.relink
    }

    fn prepare(&mut self, inst: &Instance, cfg: &RunConfig, rng: &mut Xoshiro256) -> Vec<Solution> {
        let p = self.active_workers(cfg);
        let bounds = StrategyBounds::for_instance_size(inst.n());
        self.strategies = (0..p).map(|_| bounds.random(rng)).collect();
        self.initials = (0..p)
            .map(|_| dynamic_randomized_greedy(inst, rng, cfg.isp.rcl))
            .collect();
        self.scores = vec![Score::new(); p];
        self.isp_states = (0..p).map(|_| IspState::default()).collect();
        self.prev_best = self.initials.iter().map(|s| s.value()).collect();
        self.initials.clone()
    }

    fn assign(
        &mut self,
        k: usize,
        round: usize,
        _inst: &Instance,
        cfg: &RunConfig,
        _rng: &mut Xoshiro256,
    ) -> AssignMsg {
        let budget = cfg.total_evals / (self.active_workers(cfg) as u64 * self.rounds(cfg) as u64);
        AssignMsg::trajectory(
            self.initials[k].bits().clone(),
            self.strategies[k],
            budget,
            assignment_seed(cfg, round, k),
        )
    }

    fn absorb(
        &mut self,
        k: usize,
        _round: usize,
        report: &ReportMsg,
        slave_best: &Solution,
        global_best: &Solution,
        inst: &Instance,
        cfg: &RunConfig,
        rng: &mut Xoshiro256,
    ) -> u64 {
        let mut regenerations = 0;
        if self.adaptive {
            // SGP: score the strategy, regenerate at zero using the elite
            // dispersion signal.
            let bounds = StrategyBounds::for_instance_size(inst.n());
            let regenerate = self.scores[k].update(report.best_value > self.prev_best[k]);
            regenerations += regenerate as u64;
            let dispersion = elite_dispersion(&report.elite);
            let (next, _) = next_strategy(
                self.strategies[k],
                regenerate,
                dispersion,
                inst.n(),
                &cfg.sgp,
                &bounds,
                rng,
            );
            self.strategies[k] = next;
        }
        self.prev_best[k] = self.prev_best[k].max(report.best_value);

        if self.cooperate {
            // ISP: own best / culled to global best / random restart.
            let (next_init, _) =
                self.isp_states[k].next_initial(&cfg.isp, inst, slave_best, global_best, rng);
            self.initials[k] = next_init;
        } else {
            // Independent threads: continue from own best, nothing else.
            self.initials[k] = slave_best.clone();
        }
        regenerations
    }

    /// Serialize the whole Fig. 2 master data structure — strategies,
    /// initials, scores, ISP states and per-slave bests — for a
    /// checkpoint. The blob is opaque to the engine; only
    /// [`restore`](FarmPolicy::restore) reads it back.
    fn snapshot(&self) -> Option<Vec<u8>> {
        let mut buf = PackBuffer::new();
        buf.put_usize(self.strategies.len());
        for s in &self.strategies {
            buf.put_usize(s.tabu_tenure);
            buf.put_usize(s.nb_drop);
            buf.put_usize(s.nb_local);
        }
        buf.put_usize(self.initials.len());
        for sol in &self.initials {
            pack_bits(sol.bits(), &mut buf);
        }
        buf.put_usize(self.scores.len());
        for score in &self.scores {
            buf.put_u64(score.value() as u64);
        }
        buf.put_usize(self.isp_states.len());
        for state in &self.isp_states {
            let (last_start, stale_rounds) = state.parts();
            match last_start {
                Some(bits) => {
                    buf.put_u8(1);
                    pack_bits(bits, &mut buf);
                }
                None => buf.put_u8(0),
            }
            buf.put_u64(stale_rounds as u64);
        }
        buf.put_i64s(&self.prev_best);
        Some(buf.into_bytes())
    }

    fn restore(&mut self, inst: &Instance, cfg: &RunConfig, blob: &[u8]) -> Result<(), String> {
        let p = self.active_workers(cfg);
        let decode = |e: CodecError| format!("policy blob does not decode: {e:?}");
        let mut buf = UnpackBuffer::new(blob);

        let n = buf.get_usize().map_err(decode)?;
        let mut strategies = Vec::with_capacity(n.min(p));
        for _ in 0..n {
            strategies.push(Strategy {
                tabu_tenure: buf.get_usize().map_err(decode)?,
                nb_drop: buf.get_usize().map_err(decode)?,
                nb_local: buf.get_usize().map_err(decode)?,
            });
        }
        let n = buf.get_usize().map_err(decode)?;
        let mut initials = Vec::with_capacity(n.min(p));
        for _ in 0..n {
            let bits = unpack_bits(&mut buf).map_err(decode)?;
            if bits.len() != inst.n() {
                return Err(format!(
                    "initial solution has {} variables, instance has {}",
                    bits.len(),
                    inst.n()
                ));
            }
            initials.push(Solution::from_bits(inst, bits));
        }
        let n = buf.get_usize().map_err(decode)?;
        let mut scores = Vec::with_capacity(n.min(p));
        for _ in 0..n {
            scores.push(Score::from_value(buf.get_u64().map_err(decode)? as u32));
        }
        let n = buf.get_usize().map_err(decode)?;
        let mut isp_states = Vec::with_capacity(n.min(p));
        for _ in 0..n {
            let last_start = match buf.get_u8().map_err(decode)? {
                0 => None,
                1 => Some(unpack_bits(&mut buf).map_err(decode)?),
                other => return Err(format!("bad ISP last-start flag {other}")),
            };
            let stale_rounds = buf.get_u64().map_err(decode)? as u32;
            isp_states.push(IspState::from_parts(last_start, stale_rounds));
        }
        let prev_best = buf.get_i64s().map_err(decode)?;
        if buf.remaining() != 0 {
            return Err(format!("{} trailing bytes in policy blob", buf.remaining()));
        }

        for (name, len) in [
            ("strategies", strategies.len()),
            ("initials", initials.len()),
            ("scores", scores.len()),
            ("ISP states", isp_states.len()),
            ("per-slave bests", prev_best.len()),
        ] {
            if len != p {
                return Err(format!(
                    "policy blob holds {len} {name}, run configures {p} workers"
                ));
            }
        }
        self.strategies = strategies;
        self.initials = initials;
        self.scores = scores;
        self.isp_states = isp_states;
        self.prev_best = prev_best;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_mode;
    use mkp::generate::{gk_instance, GkSpec};

    fn cfg() -> RunConfig {
        RunConfig {
            p: 3,
            rounds: 3,
            ..RunConfig::new(90_000, 17)
        }
    }

    #[test]
    fn switch_matrix_matches_modes() {
        let cfg = cfg();
        let seq = FarmPolicy::sequential();
        assert_eq!(seq.active_workers(&cfg), 1);
        assert_eq!(seq.rounds(&cfg), 1);
        let its = FarmPolicy::independent();
        assert_eq!(its.active_workers(&cfg), 3);
        assert_eq!(its.rounds(&cfg), 1);
        let cts1 = FarmPolicy::cooperative();
        assert!(cts1.cooperate && !cts1.adaptive);
        let cts2 = FarmPolicy::cooperative_adaptive();
        assert_eq!(cts2.rounds(&cfg), 3);
        assert!(cts2.cooperate && cts2.adaptive);
        // ATS is CTS2's switch set under its own label.
        let ats = FarmPolicy::asynchronous();
        assert_eq!(ats.mode(), Mode::Asynchronous);
        assert_eq!(ats.active_workers(&cfg), cts2.active_workers(&cfg));
        assert_eq!(ats.rounds(&cfg), cts2.rounds(&cfg));
        assert_eq!(
            (ats.cooperate, ats.adaptive, ats.one_round, ats.solo),
            (cts2.cooperate, cts2.adaptive, cts2.one_round, cts2.solo)
        );
    }

    #[test]
    fn adaptive_modes_regenerate_eventually() {
        // Over enough rounds the SGP must hit a zero score somewhere.
        let inst = gk_instance(
            "rg",
            GkSpec {
                n: 50,
                m: 5,
                tightness: 0.5,
                seed: 4,
            },
        );
        let cfg = RunConfig {
            p: 3,
            rounds: 12,
            ..RunConfig::new(240_000, 23)
        };
        let r = run_mode(&inst, Mode::CooperativeAdaptive, &cfg);
        assert!(r.regenerations > 0, "SGP never regenerated in 12 rounds");
        let r = run_mode(&inst, Mode::Cooperative, &cfg);
        assert_eq!(r.regenerations, 0, "CTS1 must not touch strategies");
    }

    #[test]
    fn policy_blob_round_trips_the_master_data_structure() {
        let inst = gk_instance(
            "snap",
            GkSpec {
                n: 30,
                m: 4,
                tightness: 0.5,
                seed: 9,
            },
        );
        let cfg = cfg();
        let mut rng = Xoshiro256::seed_from_u64(cfg.seed);
        let mut policy = FarmPolicy::cooperative_adaptive();
        policy.prepare(&inst, &cfg, &mut rng);
        // Dirty the state so the round trip covers more than the defaults.
        policy.scores[1] = Score::from_value(1);
        policy.prev_best[2] += 17;
        let blob = policy.snapshot().expect("trajectory modes checkpoint");

        let mut back = FarmPolicy::cooperative_adaptive();
        back.restore(&inst, &cfg, &blob).unwrap();
        assert_eq!(back.strategies, policy.strategies);
        assert_eq!(back.prev_best, policy.prev_best);
        for (a, b) in back.initials.iter().zip(&policy.initials) {
            assert_eq!(a.bits(), b.bits());
        }
        for (a, b) in back.scores.iter().zip(&policy.scores) {
            assert_eq!(a.value(), b.value());
        }
        // Same state ⇒ identical re-encoding.
        assert_eq!(back.snapshot(), policy.snapshot());

        // Wrong worker count is caught, not absorbed.
        let mut small = cfg.clone();
        small.p = 2;
        let err = back.restore(&inst, &small, &blob).unwrap_err();
        assert!(err.contains("configures 2 workers"), "{err}");

        // Truncation is a clean error, never a panic.
        for cut in 0..blob.len() {
            assert!(back.restore(&inst, &cfg, &blob[..cut]).is_err());
        }
    }
}
