//! An open-loop load generator over pipelined `effpi-serve` connections.
//!
//! Requests go out on a schedule whatever the server does: each connection
//! has a sender thread that sleeps until a request is due and a receiver
//! thread that collects replies, both through the public `Client` API
//! (`submit_verify` / `recv`). A request's latency is timed from when it was
//! *due*, so a stall shows in the latency of every request queued behind it,
//! and the generator reports how late it ran.

use std::io::{Read, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use serve::{Client, VerifyOptions};
use wire::Json;

/// One connection's two halves.
pub type Halves = (Box<dyn Read + Send>, Box<dyn Write + Send>);

/// The outcome of one request.
#[derive(Clone, Debug)]
pub struct Reply {
    /// Due time to reply, milliseconds; infinite when no reply came.
    pub latency_ms: f64,
    /// How late the generator sent it, milliseconds.
    pub late_ms: f64,
    /// The whole response object, when one came.
    pub body: Option<Json>,
}

/// The outcome of a schedule.
#[derive(Clone, Debug)]
pub struct Driven {
    /// One entry per scheduled request, in schedule order.
    pub replies: Vec<Reply>,
    /// The most requests in flight at any send.
    pub backlog_max: usize,
}

/// Sends `texts[i]` at `due_s[i]` seconds after the start, request `i` on
/// connection `i % connections.len()`, and waits for every reply.
pub fn drive(connections: Vec<Halves>, due_s: &[f64], texts: &[String], profile: bool) -> Driven {
    let n = due_s.len();
    let conns = connections.len().max(1);
    let sent = AtomicUsize::new(0);
    let received = AtomicUsize::new(0);
    let backlog_max = AtomicUsize::new(0);
    let replies: Mutex<Vec<Reply>> = Mutex::new(vec![
        Reply {
            latency_ms: f64::INFINITY,
            late_ms: 0.0,
            body: None,
        };
        n
    ]);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for (c, (reader, writer)) in connections.into_iter().enumerate() {
            let mine: Vec<usize> = (c..n).step_by(conns).collect();
            let mut sender = Client::from_halves(Box::new(std::io::empty()), writer);
            let mut receiver = Client::from_halves(reader, Box::new(std::io::sink()));
            let (sent, received, backlog_max, replies) = (&sent, &received, &backlog_max, &replies);
            let outstanding = mine.clone();
            scope.spawn(move || {
                for &i in &mine {
                    let due = start + Duration::from_secs_f64(due_s[i]);
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let late_ms = Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3;
                    replies.lock().expect("reply table lock")[i].late_ms = late_ms;
                    let options = VerifyOptions {
                        profile,
                        ..VerifyOptions::default()
                    };
                    if let Err(e) = sender.submit_verify(&texts[i], options) {
                        eprintln!("loadgen: send failed: {e}");
                        return;
                    }
                    let in_flight = (sent.fetch_add(1, Ordering::SeqCst) + 1)
                        .saturating_sub(received.load(Ordering::SeqCst));
                    backlog_max.fetch_max(in_flight, Ordering::SeqCst);
                }
            });
            scope.spawn(move || {
                for _ in 0..outstanding.len() {
                    let response = match receiver.recv() {
                        Ok(r) => r,
                        Err(e) => {
                            eprintln!("loadgen: receive failed: {e}");
                            return;
                        }
                    };
                    let now = Instant::now();
                    received.fetch_add(1, Ordering::SeqCst);
                    // Ids count this connection's requests from 1.
                    let Some(&i) = response
                        .id
                        .and_then(|id| outstanding.get((id as usize).wrapping_sub(1)))
                    else {
                        eprintln!("loadgen: reply with unknown id {:?}", response.id);
                        continue;
                    };
                    let due = start + Duration::from_secs_f64(due_s[i]);
                    let mut table = replies.lock().expect("reply table lock");
                    table[i].latency_ms = now.saturating_duration_since(due).as_secs_f64() * 1e3;
                    table[i].body = Some(response.body);
                }
            });
        }
    });
    Driven {
        replies: replies.into_inner().expect("reply table lock"),
        backlog_max: backlog_max.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::{TcpListener, TcpStream};

    /// A fake endpoint answering every request at once, except that it
    /// stalls `stall` before answering request `stall_at` (0-based).
    fn fake_endpoint(stall_at: usize, stall: Duration) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake endpoint");
        let addr = listener.local_addr().expect("local addr").to_string();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            stream.set_nodelay(true).expect("nodelay");
            let mut writer = stream.try_clone().expect("clone");
            for (k, line) in BufReader::new(stream).lines().enumerate() {
                let Ok(line) = line else { return };
                let request = Json::parse(&line).expect("request frame");
                let id = request.get("id").and_then(Json::as_usize).expect("id");
                if k == stall_at {
                    std::thread::sleep(stall);
                }
                let reply = format!("{{\"id\":{id},\"ok\":true,\"cached\":true,\"key\":\"k\"}}\n");
                if writer.write_all(reply.as_bytes()).is_err() {
                    return;
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn a_stall_shows_in_the_latency_of_the_requests_behind_it() {
        let stall = Duration::from_millis(300);
        let (addr, endpoint) = fake_endpoint(5, stall);
        let stream = TcpStream::connect(&addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let halves: Halves = (
            Box::new(stream.try_clone().expect("clone")),
            Box::new(stream),
        );
        let due: Vec<f64> = (0..30).map(|i| i as f64 * 0.02).collect();
        let texts = vec!["spec".to_string(); due.len()];
        let driven = drive(vec![halves], &due, &texts, false);
        endpoint.join().expect("fake endpoint");
        let lat: Vec<f64> = driven.replies.iter().map(|r| r.latency_ms).collect();
        assert!(lat.iter().all(|l| l.is_finite()), "{lat:?}");
        assert!(lat[..5].iter().all(|&l| l < 100.0), "{lat:?}");
        // Request 5 waits the whole stall; request 5 + k was due 20·k ms
        // later, so it still waits ~300 − 20·k ms.
        for (k, &l) in lat[5..18].iter().enumerate() {
            let floor = 300.0 - 20.0 * k as f64 - 15.0;
            assert!(
                l >= floor,
                "request {} latency {l} < {floor}: {lat:?}",
                5 + k
            );
        }
        assert!(driven.backlog_max >= 10, "backlog {}", driven.backlog_max);
    }
}
