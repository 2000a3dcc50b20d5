//! Seeded request generation for the wire workloads. The program under
//! test only ever sees what this module produces: plan sources, keys and
//! payloads.

use scl_testkit::Rng;

/// Tenants, one per connection.
pub const TENANTS: usize = 2;
/// Parts per payload (`NetConfig::procs` on the server).
pub const PARTS: usize = 64;
/// Distinct payloads a run draws from.
pub const PAYLOADS: usize = 256;
/// Length of each connection's closed-loop request cycle.
pub const CLOSED_CYCLE: usize = 1024;

const SCALARS: &[&str] = &["inc", "dec", "double", "square", "neg", "halve", "heavy"];
const IDXFNS: &[&str] = &["id", "succ", "pred", "xor1", "half", "rev", "zero"];
const ASSOC_OPS: &[&str] = &["add", "mul", "max", "min"];

/// Which traffic mix to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Four plain plans per tenant, the same four shapes for every
    /// tenant: every request after set-up is a plan-cache hit.
    Hot,
    /// Sixty-four optimizable plans per tenant, four times the server's
    /// plan-cache capacity in all: most requests compile.
    Churn,
}

impl Mix {
    pub fn plans_per_tenant(self) -> usize {
        match self {
            Mix::Hot => 4,
            Mix::Churn => 64,
        }
    }
}

/// One plan a tenant submits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    pub tenant: u32,
    pub key: String,
    pub source: String,
}

/// One request: which plan, on which payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Req {
    pub plan: usize,
    pub payload: usize,
}

/// Everything a wire run sends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireInputs {
    pub plans: Vec<Plan>,
    pub payloads: Vec<Vec<i64>>,
    /// Per connection: open-loop requests with their schedule slot. Slot
    /// `s` is due `s / rate` seconds after the phase starts; slots
    /// alternate between the connections.
    pub open: Vec<Vec<(u64, Req)>>,
    /// Per connection: the closed-loop request cycle.
    pub closed: Vec<Vec<Req>>,
}

/// Stage kinds of the hot plans, by plan index within a tenant. The shapes
/// are fixed so that every seed offers the same mix of farm segments and
/// barriers; the seed picks functions and amounts.
const HOT_SHAPES: [&[Kind]; 4] = [
    &[Kind::Map, Kind::Rotate],
    &[Kind::Scan, Kind::Map, Kind::Fetch],
    &[Kind::Send, Kind::Map, Kind::Rotate, Kind::Map],
    &[Kind::Fetch, Kind::Scan],
];

#[derive(Debug, Clone, Copy)]
enum Kind {
    Map,
    Rotate,
    Fetch,
    Send,
    Scan,
}

fn stage(kind: Kind, rng: &mut Rng) -> String {
    match kind {
        Kind::Map => format!("map({})", rng.pick(SCALARS)),
        Kind::Rotate => format!("rotate({})", rng.range_i64(-6, 7)),
        Kind::Fetch => format!("fetch({})", rng.pick(IDXFNS)),
        Kind::Send => format!("send({})", rng.pick(IDXFNS)),
        Kind::Scan => format!("scan({})", rng.pick(ASSOC_OPS)),
    }
}

/// A pattern the §4 rewrite laws simplify; `which` picks the law.
fn rewritable(which: usize, rng: &mut Rng) -> String {
    match which % 4 {
        0 => format!("map({}) . map({})", rng.pick(SCALARS), rng.pick(SCALARS)),
        1 => {
            let k = rng.range_i64(1, 7);
            format!("rotate({k}) . rotate({})", -k)
        }
        2 => format!(
            "rotate({}) . rotate({})",
            rng.range_i64(-6, 7),
            rng.range_i64(-6, 7)
        ),
        _ => format!("fetch({}) . fetch({})", rng.pick(IDXFNS), rng.pick(IDXFNS)),
    }
}

/// Plan `j` of a tenant. Hot plans take their shape from [`HOT_SHAPES`];
/// churn plans are one stage around two rewritable patterns, the pattern
/// kinds cycling with `j` and their order seeded.
fn source(mix: Mix, j: usize, rng: &mut Rng) -> String {
    const KINDS: [Kind; 5] = [Kind::Map, Kind::Rotate, Kind::Fetch, Kind::Send, Kind::Scan];
    match mix {
        Mix::Hot => HOT_SHAPES[j % HOT_SHAPES.len()]
            .iter()
            .map(|&k| stage(k, rng))
            .collect::<Vec<_>>()
            .join(" . "),
        Mix::Churn => {
            let mut chunks = [
                stage(KINDS[j % KINDS.len()], rng),
                rewritable(j, rng),
                rewritable(j / 4 + 1, rng),
            ];
            // seeded order, so the patterns sit anywhere in the chain
            for i in (1..chunks.len()).rev() {
                let k = rng.below(i as u64 + 1) as usize;
                chunks.swap(i, k);
            }
            chunks.join(" . ")
        }
    }
}

/// Generate a run's inputs. `open_slots` is the number of open-loop
/// requests over both connections.
pub fn generate(mix: Mix, seed: u64, open_slots: u64) -> WireInputs {
    let mut rng = Rng::seed_from_u64(seed);
    let ppt = mix.plans_per_tenant();
    let mut plans = Vec::with_capacity(TENANTS * ppt);
    for t in 0..TENANTS {
        for j in 0..ppt {
            plans.push(Plan {
                tenant: t as u32,
                key: format!("t{t}-p{j}"),
                source: source(mix, j, &mut rng),
            });
        }
    }
    let payloads: Vec<Vec<i64>> = (0..PAYLOADS)
        .map(|_| rng.vec_of(PARTS, |r| r.range_i64(-1_000_000, 1_000_000)))
        .collect();
    let pick = |rng: &mut Rng, conn: usize| Req {
        plan: conn * ppt + rng.below(ppt as u64) as usize,
        payload: rng.below(PAYLOADS as u64) as usize,
    };
    let mut open = vec![Vec::new(); TENANTS];
    for slot in 0..open_slots {
        let conn = (slot % TENANTS as u64) as usize;
        open[conn].push((slot, pick(&mut rng, conn)));
    }
    let closed = (0..TENANTS)
        .map(|c| (0..CLOSED_CYCLE).map(|_| pick(&mut rng, c)).collect())
        .collect();
    WireInputs {
        plans,
        payloads,
        open,
        closed,
    }
}

impl WireInputs {
    /// FNV-1a digest of the whole request sequence, for provenance.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for p in &self.plans {
            eat(&p.tenant.to_le_bytes());
            eat(p.key.as_bytes());
            eat(p.source.as_bytes());
        }
        for v in self.payloads.iter().flatten() {
            eat(&v.to_le_bytes());
        }
        for (slot, r) in self.open.iter().flatten() {
            eat(&slot.to_le_bytes());
            eat(&(r.plan as u64).to_le_bytes());
            eat(&(r.payload as u64).to_le_bytes());
        }
        for r in self.closed.iter().flatten() {
            eat(&(r.plan as u64).to_le_bytes());
            eat(&(r.payload as u64).to_le_bytes());
        }
        h
    }

    /// The first plan of each connection's tenant, with a payload: the
    /// set-up submissions that register every plan by source.
    pub fn setup_requests(&self, conn: usize) -> Vec<Req> {
        self.plans
            .iter()
            .enumerate()
            .filter(|(_, p)| p.tenant as usize == conn)
            .map(|(i, _)| Req {
                plan: i,
                payload: i % PAYLOADS,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_generates_the_same_requests() {
        for mix in [Mix::Hot, Mix::Churn] {
            let a = generate(mix, 42, 500);
            let b = generate(mix, 42, 500);
            assert_eq!(a, b);
            assert_eq!(a.digest(), b.digest());
            let c = generate(mix, 43, 500);
            assert_ne!(a.digest(), c.digest(), "another seed, other requests");
        }
    }

    #[test]
    fn every_source_parses_and_requests_stay_in_their_tenant() {
        for mix in [Mix::Hot, Mix::Churn] {
            let w = generate(mix, 7, 200);
            assert_eq!(w.plans.len(), TENANTS * mix.plans_per_tenant());
            for p in &w.plans {
                scl_transform::parse(&p.source).expect("generated grammar parses");
            }
            for (conn, reqs) in w.open.iter().enumerate() {
                for (slot, r) in reqs {
                    assert_eq!(*slot as usize % TENANTS, conn);
                    assert_eq!(w.plans[r.plan].tenant as usize, conn);
                }
            }
        }
    }

    #[test]
    fn churn_keys_span_four_cache_capacities() {
        let w = generate(Mix::Churn, 1, 0);
        assert_eq!(w.plans.len(), 4 * 32);
    }
}
