//! Serve a study over the scripted HTTP transport: build a store,
//! script a handful of client connections — one well-behaved, one
//! slowloris, one saturating burst — and print every transcript the
//! server produces, twice, to show the replay is byte-identical.
//!
//! Run with: `cargo run --release --example serve_demo`

use mxmap::analysis::store::StudyStoreExt;
use mxmap::corpus::{company_map, provider_knowledge, Dataset, ScenarioConfig, Study};
use mxmap::infer::Pipeline;
use mxmap::serve::{ClientConn, RunReport, Server, ServerConfig, Trace};
use mxmap::store::StoreReader;

fn main() {
    // 1. A study on disk: the same store file §12 tooling queries.
    let study = Study::generate(ScenarioConfig::small(42));
    let pipeline = Pipeline::priority_based(provider_knowledge(10));
    let bytes = study
        .write_store(Dataset::Alexa, &pipeline, &company_map())
        .expect("serialize study");
    let reader = StoreReader::open(&bytes).expect("open store");
    let last = reader.epoch_count() - 1;

    // Pick a real domain to look up.
    let mut domain = String::new();
    reader
        .for_each_row(last, |name, _| {
            if domain.is_empty() {
                domain = name.to_string();
            }
            Ok(())
        })
        .expect("scan last epoch");

    // 2. Script the clients. Connection 0 behaves; connection 1 sends
    //    half a request line and stalls (the read deadline evicts it);
    //    connections 10..18 all fire at the same instant against a
    //    one-worker config, so most of them are shed with 503.
    let lookup = format!("GET /lookup?domain={domain}&epoch={last} HTTP/1.1\r\n\r\n");
    let market = format!("GET /market?epoch={last}&top=5 HTTP/1.1\r\n\r\n");
    let churn = format!("GET /churn?from=0&to={last} HTTP/1.1\r\nConnection: close\r\n\r\n");
    let mut trace = Trace::new()
        .with(ClientConn::scripted(
            0,
            0,
            30,
            &[
                b"GET /healthz HTTP/1.1\r\n\r\n",
                lookup.as_bytes(),
                market.as_bytes(),
                churn.as_bytes(),
            ],
        ))
        .with(ClientConn::scripted(1, 0, 0, &[b"GET /mar"]));
    for id in 10..18 {
        trace = trace.with(ClientConn::scripted(
            id,
            40,
            0,
            &[b"GET /market?epoch=0 HTTP/1.1\r\nConnection: close\r\n\r\n"],
        ));
    }

    let cfg = ServerConfig {
        workers: 1,
        queue_capacity: 2,
        ..ServerConfig::default()
    };

    // 3. Serve it twice; the transcripts must match byte for byte.
    let first = Server::new(&reader, cfg.clone()).run(&trace);
    let second = Server::new(&reader, cfg).run(&trace);
    assert_eq!(first, second, "replay must be byte-identical");

    print_report(&first);
    println!("\nreplayed: second run byte-identical to the first");
}

fn print_report(report: &RunReport) {
    println!(
        "accepted {} requests: {} served, {} errored, {} shed, {} evicted \
         (identity holds: {}; dropped without response: {})",
        report.accepted,
        report.served,
        report.errored,
        report.shed,
        report.evicted,
        report.reconciles(),
        report.dropped_without_response,
    );
    for t in &report.transcripts {
        println!(
            "\nconn {} -> statuses {:?}, closed: {:?}, {} response bytes",
            t.id,
            t.statuses,
            t.close,
            t.len()
        );
        // Show each response's status line for the well-behaved conn
        // (a head can directly follow the previous body, so scan for
        // the version marker rather than splitting on newlines).
        if t.id == 0 {
            let bytes = t.bytes();
            let text = String::from_utf8_lossy(&bytes);
            for (at, _) in text.match_indices("HTTP/1.1 ") {
                let line = text[at..].lines().next().unwrap_or_default();
                println!("  {line}");
            }
        }
    }
}
