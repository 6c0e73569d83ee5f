//! `flm-serve` — refutation-as-a-service over framed FLMC-RPC.
//!
//! Binds a TCP listener and answers refute / verify / audit / stats
//! requests with an event-driven reactor multiplexing every connection and
//! a bounded worker pool for the CPU-bound work. A saturated server answers
//! a typed `Overloaded` frame instead of dropping the socket.
//!
//! ```text
//! flm-serve [--addr HOST:PORT] [--workers N] [--queue-depth N]
//!           [--max-body-bytes N] [--read-timeout-ms N] [--max-hold-ms N]
//!           [--max-requests N] [--max-connections N] [--max-pipelined N]
//!           [--store-dir DIR] [--port-file FILE]
//!           [--shard-id N --peers ADDR,ADDR,... [--shard-count N]]
//! ```
//!
//! `--addr 127.0.0.1:0` (the default) binds an ephemeral port;
//! `--port-file` writes the actual bound address to a file (atomically:
//! temp file + rename, so a polling reader never sees a partial port),
//! which is how `scripts/check.sh --serve-smoke` finds the server it just
//! started. A repeat refutation is always a byte lookup in the in-memory
//! certificate cache; `--store-dir` adds the cache's disk tier, so
//! refutations are served memory → disk → simulate, warm hits survive
//! restarts, and the server accepts shipped certificates (`PutCert`, the
//! receiving end of `flm-client rebalance`). `--shard-id`/`--peers` place
//! the process in a sharded cluster: it owns the rendezvous slice of the
//! key space for its id, answers off-owner requests with a typed
//! `WrongShard`, and pulls certificates it newly owns from peers before
//! cold-simulating.

use std::process::ExitCode;

use flm_serve::server::{write_port_file, ServeConfig, Server, ShardRole};
use flm_serve::shard::ShardMap;

fn usage() -> &'static str {
    "usage: flm-serve [--addr HOST:PORT] [--workers N] [--queue-depth N]\n\
     \x20                [--max-body-bytes N] [--read-timeout-ms N] [--max-hold-ms N]\n\
     \x20                [--max-requests N] [--max-connections N] [--max-pipelined N]\n\
     \x20                [--store-dir DIR] [--port-file FILE]\n\
     \x20                [--shard-id N --peers ADDR,ADDR,... [--shard-count N]]\n\
     repeat refutes are answered from an in-memory certificate cache; --store-dir\n\
     adds its disk tier (restart warmth, and PutCert from flm-client rebalance)"
}

fn parse(args: &[String]) -> Result<ServeConfig, String> {
    let mut config = ServeConfig::default();
    let mut shard_id: Option<u32> = None;
    let mut shard_count: Option<u32> = None;
    let mut peers: Option<ShardMap> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{flag} wants a value"))
        };
        match arg.as_str() {
            "--addr" => config.addr = value("--addr")?.clone(),
            "--workers" => {
                config.workers = value("--workers")?
                    .parse()
                    .map_err(|_| "--workers wants a positive integer".to_string())?;
                if config.workers == 0 {
                    return Err("--workers wants a positive integer".into());
                }
            }
            "--queue-depth" => {
                config.queue_depth = value("--queue-depth")?
                    .parse()
                    .map_err(|_| "--queue-depth wants an integer".to_string())?;
            }
            "--max-body-bytes" => {
                config.max_body_bytes = value("--max-body-bytes")?
                    .parse()
                    .map_err(|_| "--max-body-bytes wants an integer".to_string())?;
            }
            "--read-timeout-ms" => {
                let ms: u64 = value("--read-timeout-ms")?
                    .parse()
                    .map_err(|_| "--read-timeout-ms wants an integer".to_string())?;
                config.read_timeout = std::time::Duration::from_millis(ms);
            }
            "--max-hold-ms" => {
                config.max_hold_ms = value("--max-hold-ms")?
                    .parse()
                    .map_err(|_| "--max-hold-ms wants an integer".to_string())?;
            }
            "--max-requests" => {
                config.max_requests_per_conn = value("--max-requests")?
                    .parse()
                    .map_err(|_| "--max-requests wants an integer".to_string())?;
            }
            "--max-connections" => {
                config.max_connections = value("--max-connections")?
                    .parse()
                    .map_err(|_| "--max-connections wants a positive integer".to_string())?;
                if config.max_connections == 0 {
                    return Err("--max-connections wants a positive integer".into());
                }
            }
            "--max-pipelined" => {
                config.max_pipelined = value("--max-pipelined")?
                    .parse()
                    .map_err(|_| "--max-pipelined wants a positive integer".to_string())?;
                if config.max_pipelined == 0 {
                    return Err("--max-pipelined wants a positive integer".into());
                }
            }
            "--store-dir" => {
                config.store_dir = Some(value("--store-dir")?.into());
            }
            "--shard-id" => {
                shard_id = Some(
                    value("--shard-id")?
                        .parse()
                        .map_err(|_| "--shard-id wants an integer".to_string())?,
                );
            }
            "--shard-count" => {
                shard_count = Some(
                    value("--shard-count")?
                        .parse()
                        .map_err(|_| "--shard-count wants an integer".to_string())?,
                );
            }
            "--peers" => peers = Some(ShardMap::parse_peers(value("--peers")?)?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    match (shard_id, peers) {
        (None, None) => {
            if shard_count.is_some() {
                return Err("--shard-count without --shard-id/--peers".into());
            }
        }
        (Some(id), Some(map)) => {
            if let Some(count) = shard_count {
                if count != map.count() {
                    return Err(format!(
                        "--shard-count {count} disagrees with the {}-entry --peers list",
                        map.count()
                    ));
                }
            }
            if id >= map.count() {
                return Err(format!(
                    "--shard-id {id} is outside the {}-shard --peers list",
                    map.count()
                ));
            }
            config.shard = Some(ShardRole { id, map });
        }
        _ => return Err("--shard-id and --peers go together".into()),
    }
    Ok(config)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // --port-file is peeled off first so `parse` deals only with ServeConfig
    // fields.
    let mut args = Vec::new();
    let mut port_file = None;
    let mut it = raw.into_iter();
    while let Some(arg) = it.next() {
        if arg == "--port-file" {
            match it.next() {
                Some(path) => port_file = Some(path),
                None => {
                    eprintln!("flm-serve: --port-file wants a value");
                    eprintln!("{}", usage());
                    return ExitCode::FAILURE;
                }
            }
        } else {
            args.push(arg);
        }
    }
    let config = match parse(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("flm-serve: {msg}");
            eprintln!("{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let server = match Server::start(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("flm-serve: start failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = server.local_addr();
    if let Some(path) = port_file {
        if let Err(e) = write_port_file(std::path::Path::new(&path), addr) {
            eprintln!("flm-serve: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("listening on {addr}");
    server.wait();
    ExitCode::SUCCESS
}
