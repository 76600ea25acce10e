//! The live-exporter probe of the tuning workloads.
//!
//! A tuning run that an operator watches serves `GET /metrics` from the
//! in-process exporter (`telemetry::export`, what `ansor-tune
//! --metrics-addr` starts). The probe scrapes it from one client thread
//! at seeded, jittered intervals while the tuner runs and times each
//! scrape from connect to the last byte read, which is what the
//! operator's scraper waits for.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::prelude::*;

/// A running probe; [`Probe::finish`] stops it and returns its samples.
pub struct Probe {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<(Vec<f64>, u64)>,
    exporter: telemetry::export::Exporter,
}

impl Probe {
    /// Starts an exporter on a loopback port and a scraper thread.
    pub fn start(seed: u64) -> Probe {
        let tel = telemetry::Telemetry::with_metrics();
        let exporter = telemetry::export::serve(&tel, "127.0.0.1:0", Default::default())
            .expect("metrics exporter binds a loopback port");
        let addr = exporter.local_addr();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("perfbench-probe".into())
            .spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut rtts = Vec::new();
                let mut errors = 0u64;
                while !stop2.load(Ordering::SeqCst) {
                    let t0 = Instant::now();
                    match scrape(addr) {
                        Ok(()) => rtts.push(t0.elapsed().as_secs_f64() * 1e3),
                        Err(_) => errors += 1,
                    }
                    std::thread::sleep(Duration::from_micros(rng.gen_range(20_000..60_000)));
                }
                (rtts, errors)
            })
            .expect("spawn probe thread");
        Probe {
            stop,
            thread,
            exporter,
        }
    }

    /// Stops the scraper and the exporter; returns round trips (ms) and
    /// failed scrapes.
    pub fn finish(self) -> (Vec<f64>, u64) {
        self.stop.store(true, Ordering::SeqCst);
        let out = self.thread.join().expect("probe thread panicked");
        self.exporter.shutdown();
        out
    }
}

fn scrape(addr: std::net::SocketAddr) -> std::io::Result<()> {
    let mut s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(Duration::from_secs(5)))?;
    s.write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n")?;
    let mut body = Vec::new();
    s.read_to_end(&mut body)?;
    if body.starts_with(b"HTTP/1.1 200") {
        Ok(())
    } else {
        Err(std::io::Error::other("scrape did not return 200"))
    }
}
