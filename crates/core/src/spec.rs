//! Textual graph specifications for the CLI, the serve protocol, and
//! experiment scripts.
//!
//! A spec is `family:params`, e.g. `torus:8x8`, `butterfly:4`,
//! `random:64x4:7` (n × degree × seed). [`parse_graph`] covers every
//! generator family in the workspace.

use std::cell::Cell;
use std::panic::{catch_unwind, UnwindSafe};
use std::sync::Once;
use unet_topology::generators as gen;
use unet_topology::util::seeded_rng;
use unet_topology::Graph;

/// Parse a graph spec. Supported families:
///
/// | spec | graph |
/// |---|---|
/// | `ring:N`, `path:N`, `complete:N` | 1-D classics |
/// | `mesh:RxC`, `torus:RxC` | grids |
/// | `multitorus:AxN` | `(A, N)`-multitorus (Definition 3.8) |
/// | `butterfly:D`, `wbutterfly:D` | (wrapped) butterflies |
/// | `benes:D` | Beneš network on `2^D` rows |
/// | `ccc:D`, `shuffle:D`, `debruijn:D`, `hypercube:D` | hypercubic |
/// | `tree:D`, `xtree:D` | trees of depth `D` |
/// | `meshoftrees:S` | `S×S` mesh of trees (\[1\]) |
/// | `kautz:BxK` | Kautz graph `K(B, K)` |
/// | `multibutterfly:D` or `multibutterfly:D:SEED` | randomized multibutterfly (\[17\]) |
/// | `random:NxD` or `random:NxD:SEED` | random `D`-regular |
/// | `expander:N` or `expander:N:SEED` | random 4-regular expander |
/// | `margulis:S` | Margulis-style expander on `S×S` |
///
/// Some generators `assert!` their preconditions (`random:5x3` trips "n·d
/// must be even"). Such a spec is an `Err` carrying the assertion message,
/// never a panic: a spec off the wire or the command line must not kill
/// the thread that parses it, nor print a panic report. A graph without
/// nodes (`ring:0`, `mesh:0x0`) is an `Err` too: no network runs on it.
pub fn parse_graph(spec: &str) -> Result<Graph, String> {
    let g = quietly(|| build_graph(spec))
        .unwrap_or_else(|msg| Err(format!("{spec:?} rejected by its generator: {msg}")))?;
    if g.n() == 0 {
        return Err(format!("{spec:?} has no nodes"));
    }
    Ok(g)
}

thread_local! {
    /// Whether this thread is inside [`quietly`].
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

/// Run `f`, turning a panic into `Err(message)`. The panic hook stays
/// silent for panics inside `f` and passes every other panic, on any
/// thread, to the hook that was installed before.
fn quietly<T>(f: impl FnOnce() -> T + UnwindSafe) -> Result<T, String> {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET.with(Cell::get) {
                previous(info);
            }
        }));
    });
    let outer = QUIET.with(|q| q.replace(true));
    let out = catch_unwind(f);
    QUIET.with(|q| q.set(outer));
    out.map_err(|panic| {
        panic
            .downcast_ref::<&str>()
            .map(|m| m.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "generator panicked".to_string())
    })
}

fn build_graph(spec: &str) -> Result<Graph, String> {
    let (family, rest) = spec
        .split_once(':')
        .ok_or_else(|| format!("spec {spec:?} must look like family:params"))?;
    let nums = |s: &str| -> Result<Vec<usize>, String> {
        s.split(['x', ':'])
            .map(|p| p.parse::<usize>().map_err(|_| format!("bad number {p:?} in {spec:?}")))
            .collect()
    };
    let one = |s: &str| -> Result<usize, String> {
        let v = nums(s)?;
        (v.len() == 1).then(|| v[0]).ok_or_else(|| format!("{family} takes one parameter"))
    };
    let two = |s: &str| -> Result<(usize, usize), String> {
        let v = nums(s)?;
        (v.len() == 2)
            .then(|| (v[0], v[1]))
            .ok_or_else(|| format!("{family} takes two parameters (use AxB)"))
    };
    Ok(match family {
        "ring" => gen::ring(one(rest)?),
        "path" => gen::path(one(rest)?),
        "complete" => gen::complete(one(rest)?),
        "mesh" => {
            let (r, c) = two(rest)?;
            gen::mesh(r, c)
        }
        "torus" => {
            let (r, c) = two(rest)?;
            gen::torus(r, c)
        }
        "multitorus" => {
            let (a, n) = two(rest)?;
            gen::multitorus(a, n)
        }
        "butterfly" => gen::butterfly(one(rest)?),
        "wbutterfly" => gen::wrapped_butterfly(one(rest)?),
        "benes" => unet_routing::benes::benes_network(one(rest)?),
        "ccc" => gen::cube_connected_cycles(one(rest)?),
        "shuffle" => gen::shuffle_exchange(one(rest)?),
        "debruijn" => gen::de_bruijn(one(rest)?),
        "hypercube" => gen::hypercube(one(rest)?),
        "tree" => gen::binary_tree(one(rest)?),
        "xtree" => gen::x_tree(one(rest)?),
        "margulis" => gen::margulis_expander(one(rest)?),
        "meshoftrees" => gen::mesh_of_trees(one(rest)?),
        "kautz" => {
            let (b, k) = two(rest)?;
            gen::kautz(b, k)
        }
        "multibutterfly" => {
            let v = nums(rest)?;
            match v.as_slice() {
                [d] => gen::multibutterfly(*d, &mut seeded_rng(0)),
                [d, seed] => gen::multibutterfly(*d, &mut seeded_rng(*seed as u64)),
                _ => return Err("multibutterfly takes D or D:SEED".into()),
            }
        }
        "random" => {
            let v = nums(rest)?;
            match v.as_slice() {
                [n, d] => gen::random_regular(*n, *d, &mut seeded_rng(0)),
                [n, d, seed] => gen::random_regular(*n, *d, &mut seeded_rng(*seed as u64)),
                _ => return Err("random takes NxD or NxD:SEED".into()),
            }
        }
        "expander" => {
            let v = nums(rest)?;
            match v.as_slice() {
                [n] => gen::random_hamiltonian_union(*n, 2, &mut seeded_rng(0)),
                [n, seed] => gen::random_hamiltonian_union(*n, 2, &mut seeded_rng(*seed as u64)),
                _ => return Err("expander takes N or N:SEED".into()),
            }
        }
        other => return Err(format!("unknown graph family {other:?}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_family() {
        for (spec, n) in [
            ("ring:8", 8),
            ("path:5", 5),
            ("complete:6", 6),
            ("mesh:3x4", 12),
            ("torus:4x4", 16),
            ("multitorus:2x16", 16),
            ("butterfly:3", 32),
            ("wbutterfly:3", 24),
            ("benes:3", 48),
            ("ccc:3", 24),
            ("shuffle:4", 16),
            ("debruijn:4", 16),
            ("hypercube:4", 16),
            ("tree:3", 15),
            ("xtree:3", 15),
            ("margulis:4", 16),
            ("meshoftrees:4", 16 + 24),
            ("kautz:2x3", 12),
            ("multibutterfly:3", 32),
            ("random:16x4", 16),
            ("random:16x4:9", 16),
            ("expander:10", 10),
        ] {
            let g = parse_graph(spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(g.n(), n, "{spec}");
        }
    }

    #[test]
    fn seeded_specs_reproducible() {
        assert_eq!(parse_graph("random:16x4:9"), parse_graph("random:16x4:9"));
        assert_ne!(parse_graph("random:16x4:9"), parse_graph("random:16x4:10"));
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(parse_graph("blah:3").unwrap_err().contains("unknown graph family"));
        assert!(parse_graph("ring").unwrap_err().contains("family:params"));
        assert!(parse_graph("torus:4").unwrap_err().contains("two parameters"));
        assert!(parse_graph("ring:x").unwrap_err().contains("bad number"));
    }

    #[test]
    fn generator_asserts_are_errors() {
        let err = parse_graph("random:5x3").unwrap_err();
        assert!(err.contains("rejected by its generator"), "{err}");
        assert!(err.contains("n·d must be even"), "{err}");
        // The guard leaves the thread able to parse again.
        assert_eq!(parse_graph("ring:4").map(|g| g.n()), Ok(4));
    }

    #[test]
    fn empty_graphs_are_errors() {
        for spec in ["ring:0", "path:0", "complete:0", "mesh:0x0", "mesh:0x5", "torus:0x0"] {
            let err = parse_graph(spec).unwrap_err();
            assert!(err.ends_with("has no nodes"), "{spec}: {err}");
        }
    }
}
