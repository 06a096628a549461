//! Run the big rack topology once and print a one-line summary.
//!
//! `--shards=N` runs it on `N` kernel worker threads under the rack
//! partition (default 1, the sequential kernel; `N` must lie in
//! `1..=bigtopo::RACKS`, anything else exits with status 2, as does
//! `N > 1` under `HPSOCK_NETMODEL=flow`, whose clusters take no shard
//! plan).
//! `--quick` / `HPSOCK_QUICK=1` shrinks the message count for smoke runs.
//! `--transport=tcp` switches the streams to kernel TCP at the 32 KiB
//! gate message size (`--transport=socketvia` is the default workload);
//! `HPSOCK_NETMODEL=flow` runs the same topology through the fluid
//! engine. With `HPSOCK_TELEMETRY=<dir>` the kernel writes
//! `run_report.json` (and, sharded, `shard_rounds.csv` +
//! `shard_lanes.json`) there — the CI shard-smoke job compares the
//! printed digests of `--shards=1` and `--shards=2` and gates on the
//! reports' events/sec ratio, and the flow-smoke job compares `events=`
//! between `HPSOCK_NETMODEL=packet` and `flow` on the TCP workload.

use hpsock_experiments::bigtopo;
use hpsock_net::{configured_netmodel, NetModel, TransportKind};

/// Parse the value of `--shards=`: a worker count in `1..=RACKS`.
fn parse_shards(raw: &str) -> Result<usize, String> {
    match raw.parse::<usize>() {
        Ok(n) if (1..=bigtopo::RACKS).contains(&n) => Ok(n),
        _ => Err(format!(
            "--shards must be a whole number from 1 to {}, got {raw:?}",
            bigtopo::RACKS
        )),
    }
}

/// Reject the command line: print `err` and the usage line, exit 2.
fn usage(err: &str) -> ! {
    eprintln!("bigsim: {err}");
    eprintln!(
        "usage: bigsim [--quick] [--transport=tcp|socketvia] [--shards=1..{}]",
        bigtopo::RACKS
    );
    std::process::exit(2);
}

fn main() {
    let mut transport = TransportKind::SocketVia;
    let mut shards = 1;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--transport=tcp" => transport = TransportKind::KTcp,
            "--transport=socketvia" => transport = TransportKind::SocketVia,
            "--quick" => {} // read by quick_mode()
            other => match other.strip_prefix("--shards=").map(parse_shards) {
                Some(Ok(n)) => shards = n,
                Some(Err(e)) => usage(&e),
                None => usage(&format!("unknown argument {other:?}")),
            },
        }
    }
    if shards > 1 && configured_netmodel() == NetModel::Flow {
        usage(
            "--shards above 1 needs the packet model: under HPSOCK_NETMODEL=flow \
             every flow runs on the one fluid core",
        );
    }
    let bytes = match transport {
        TransportKind::SocketVia => bigtopo::BYTES,
        _ => bigtopo::GATE_BYTES,
    };
    let msgs: u32 = if hpsock_experiments::quick_mode() {
        30
    } else {
        100
    };
    let (end, digest, events) = bigtopo::run_big_custom(shards, msgs, transport, bytes);
    println!(
        "bigsim model={} transport={} shards={shards} msgs_per_conn={msgs} \
         events={events} digest={digest:016x} end_us={:.1}",
        configured_netmodel().label(),
        transport.label(),
        end.as_nanos() as f64 / 1e3
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_count_parsing_is_strict() {
        assert_eq!(parse_shards("1"), Ok(1));
        assert_eq!(parse_shards("2"), Ok(2));
        let max = bigtopo::RACKS;
        assert_eq!(parse_shards(&max.to_string()), Ok(max));
        let too_many = (max + 1).to_string();
        for bad in ["0", "-2", "two", "", " 2", "2.0", too_many.as_str()] {
            let err = parse_shards(bad).unwrap_err();
            assert!(err.starts_with("--shards must be"), "{bad:?}: {err}");
        }
    }
}
