//! Version-negotiation behaviour of [`ApiClient`]: a `prj/2` peer is
//! confirmed, a `prj/1` peer is refused with a typed version error. Both
//! peers are hand-rolled loopback servers (no engine involved).

use prj_api::{ApiClient, ErrorKind, Request};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;

/// A fake `prj/1`-only server: it answers every line with the version
/// error a `prj/1` build produces for a line in a dialect it does not
/// speak.
fn fake_v1_server() -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    std::thread::spawn(move || {
        let Ok((stream, _)) = listener.accept() else {
            return;
        };
        let mut writer = stream.try_clone().expect("clone");
        let reader = BufReader::new(stream);
        for line in reader.lines() {
            if line.is_err() {
                break;
            }
            let response = "prj/1 err kind=version msg=this build speaks prj/1\n";
            if writer.write_all(response.as_bytes()).is_err() {
                break;
            }
        }
    });
    addr
}

#[test]
fn negotiation_against_a_prj1_server_is_a_typed_version_error() {
    let addr = fake_v1_server();
    let mut client = ApiClient::connect(addr).expect("connect");
    // There is no fallback dialect: the prj/1 answer itself is refused.
    let err = client.negotiate().expect_err("a prj/1 peer is refused");
    assert_eq!(err.kind, ErrorKind::Version, "{err}");
    // The connection stays line-synchronised: the next call reads the
    // next answer and is refused the same way.
    let err = client.stats().expect_err("a prj/1 peer is refused");
    assert_eq!(err.kind, ErrorKind::Version, "{err}");
}

#[test]
fn wire_level_hello_answers_the_common_version() {
    // A fake prj/2 peer answering hello with its own version.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    std::thread::spawn(move || {
        let Ok((stream, _)) = listener.accept() else {
            return;
        };
        let mut writer = stream.try_clone().expect("clone");
        let reader = BufReader::new(stream);
        for line in reader.lines() {
            let Ok(line) = line else { break };
            let request = prj_api::wire::decode_request(&line).expect("decode");
            let Request::Hello { max_version } = request else {
                panic!("expected hello, got {request:?}");
            };
            assert_eq!(max_version, prj_api::PROTOCOL_VERSION);
            let response = prj_api::wire::encode_response_at(
                &prj_api::Response::HelloAck {
                    version: max_version,
                },
                prj_api::PROTOCOL_VERSION,
            );
            writer
                .write_all(format!("{response}\n").as_bytes())
                .expect("write");
        }
    });
    let mut client = ApiClient::connect(addr).expect("connect");
    assert_eq!(client.negotiate().expect("negotiate"), 2);
}
