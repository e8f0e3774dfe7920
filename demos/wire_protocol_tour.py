"""Walkthrough: the device-to-gateway wire protocol.

Encode a reading, corrupt it, watch the parser reject it, and replay a
recorded trace on its original timeline.

Run with:  python3 demos/wire_protocol_tour.py
"""

from smartbag import dataset, frames

# 1. A single reading becomes one checksummed ASCII line.
frame = frames.SensorFrame(device_id="BAG1", seq=7, ts=12000,
                           lat=12.9716, lon=77.5946, az=1.02,
                           load_left=48.5, load_right=47.9,
                           mq2=120.0, mq135=80.0, temp=24.5, humidity=55.0)
line = frames.encode_frame(frame)
print("wire line:", line.decode().strip())

# 2. Round trip is lossless at 6 significant digits.
back = frames.parse_frame(line)
print("round trip ok:", back.lat == float(f"{frame.lat:.6g}"))

# 3. A single flipped bit trips the XOR checksum.
corrupted = bytearray(line)
corrupted[10] ^= 0x04
try:
    frames.parse_frame(bytes(corrupted))
except frames.BadChecksum as e:
    print("corruption detected:", e)

# 4. Out-of-range values are rejected with the offending field named.
bad = frames.SensorFrame(lat=123.0)
try:
    frames.encode_frame(bad)
except frames.RangeViolation as e:
    print("range check:", e)

# 5. Record a simulated session and replay it twice as fast.
sim = frames.SimulatorSource(dataset.default_profiles(), seed=1)
recorded = sim.poll(0) + sim.poll(9000)
frames.write_trace(recorded, "/tmp/demo_trace.txt")
replay = frames.TraceSource.from_file("/tmp/demo_trace.txt", start_ms=0,
                                      speed=2.0)
got = replay.poll(4500)  # 9 s of tape fits in 4.5 s at 2x
print(f"replayed {len(got)} of {len(recorded)} frames in half the time")
