// SimTransport equivalence: splitting the wire out of the protocol
// binding must not move a single byte of observable behavior.
//
// Three scenarios pinned from the tree before src/transport existed
// (each trace captured when BneckProtocol talked to the Simulator
// directly):
//
//   * the PR 4 unweighted 94-line golden trace (also pinned, against
//     the same constant, in weighted_protocol_test.cpp),
//   * a weighted variant (non-uniform weights, a weight change),
//   * a shared-access variant (three sessions on one source host).
//
// Each runs through the protocol and the SimTransport it owns.  The
// traces must equal the pinned bytes exactly: same packets, same order,
// same timestamps.
//
// A fourth trace pins the go-back-N layer (wire.reliable_links, 20%
// loss), whose retransmissions show up as repeated wire sends.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/bneck.hpp"
#include "core/text_trace.hpp"
#include "net/routing.hpp"
#include "sim/simulator.hpp"
#include "topo/canonical.hpp"
#include "topo/transit_stub.hpp"

namespace bneck::core {
namespace {

constexpr const char kGoldenUnweightedTrace[] =
    R"trace(0ns  Join  s=0  link=6  hop=1  lambda=60.00 Mbps  eta=6
0ns  Join  s=1  link=8  hop=1  lambda=45.00 Mbps  eta=8
9.533us  Join  s=0  link=0  hop=2  lambda=60.00 Mbps  eta=6
9.533us  Join  s=1  link=2  hop=2  lambda=45.00 Mbps  eta=8
15.653us  Join  s=0  link=2  hop=3  lambda=50.00 Mbps  eta=2
15.653us  Join  s=1  link=11  hop=3  lambda=45.00 Mbps  eta=8
21.773us  Join  s=0  link=4  hop=4  lambda=50.00 Mbps  eta=2
25.186us  Response  s=1  link=10  hop=2  tau=RESPONSE  lambda=45.00 Mbps  eta=8
27.893us  Join  s=0  link=13  hop=5  lambda=50.00 Mbps  eta=2
34.719us  Response  s=1  link=3  hop=1  tau=RESPONSE  lambda=45.00 Mbps  eta=8
37.426us  Response  s=0  link=12  hop=4  tau=RESPONSE  lambda=50.00 Mbps  eta=2
40.839us  Response  s=1  link=9  hop=0  tau=RESPONSE  lambda=45.00 Mbps  eta=8
46.959us  Response  s=0  link=5  hop=3  tau=RESPONSE  lambda=50.00 Mbps  eta=2
50.372us  API.Rate  s=1  rate=45.00 Mbps
50.372us  SetBottleneck  s=1  link=8  hop=1  beta=true
53.079us  Response  s=0  link=3  hop=2  tau=RESPONSE  lambda=50.00 Mbps  eta=2
59.199us  Response  s=0  link=1  hop=1  tau=RESPONSE  lambda=50.00 Mbps  eta=2
59.905us  Update  s=0  link=1  hop=1
59.905us  SetBottleneck  s=1  link=2  hop=2  beta=true
65.319us  Response  s=0  link=7  hop=0  tau=RESPONSE  lambda=50.00 Mbps  eta=2
66.025us  SetBottleneck  s=1  link=11  hop=3  beta=true
70.439us  Update  s=0  link=7  hop=0
83.385us  Probe  s=0  link=6  hop=1  lambda=60.00 Mbps  eta=6
92.918us  Probe  s=0  link=0  hop=2  lambda=60.00 Mbps  eta=6
99.038us  Probe  s=0  link=2  hop=3  lambda=55.00 Mbps  eta=2
105.158us  Probe  s=0  link=4  hop=4  lambda=55.00 Mbps  eta=2
111.278us  Probe  s=0  link=13  hop=5  lambda=55.00 Mbps  eta=2
120.811us  Response  s=0  link=12  hop=4  tau=RESPONSE  lambda=55.00 Mbps  eta=2
130.344us  Response  s=0  link=5  hop=3  tau=RESPONSE  lambda=55.00 Mbps  eta=2
136.464us  Response  s=0  link=3  hop=2  tau=RESPONSE  lambda=55.00 Mbps  eta=2
142.584us  Response  s=0  link=1  hop=1  tau=BOTTLENECK  lambda=55.00 Mbps  eta=2
148.704us  Response  s=0  link=7  hop=0  tau=BOTTLENECK  lambda=55.00 Mbps  eta=2
158.237us  API.Rate  s=0  rate=55.00 Mbps
158.237us  SetBottleneck  s=0  link=6  hop=1  beta=false
167.770us  SetBottleneck  s=0  link=0  hop=2  beta=false
173.890us  SetBottleneck  s=0  link=2  hop=3  beta=true
180.010us  SetBottleneck  s=0  link=4  hop=4  beta=true
186.130us  SetBottleneck  s=0  link=13  hop=5  beta=true
195.663us  Join  s=2  link=10  hop=1  lambda=60.00 Mbps  eta=10
205.196us  Join  s=2  link=3  hop=2  lambda=60.00 Mbps  eta=10
211.316us  Join  s=2  link=1  hop=3  lambda=60.00 Mbps  eta=10
217.436us  Join  s=2  link=7  hop=4  lambda=60.00 Mbps  eta=10
226.969us  Response  s=2  link=6  hop=3  tau=RESPONSE  lambda=60.00 Mbps  eta=10
236.502us  Response  s=2  link=0  hop=2  tau=BOTTLENECK  lambda=60.00 Mbps  eta=7
242.622us  Response  s=2  link=2  hop=1  tau=BOTTLENECK  lambda=60.00 Mbps  eta=7
248.742us  Response  s=2  link=11  hop=0  tau=BOTTLENECK  lambda=60.00 Mbps  eta=7
258.275us  API.Rate  s=2  rate=60.00 Mbps
258.275us  SetBottleneck  s=2  link=10  hop=1  beta=true
267.808us  SetBottleneck  s=2  link=3  hop=2  beta=true
273.928us  SetBottleneck  s=2  link=1  hop=3  beta=true
280.048us  SetBottleneck  s=2  link=7  hop=4  beta=true
289.581us  Probe  s=1  link=8  hop=1  lambda=10.00 Mbps  eta=8
299.114us  Update  s=0  link=1  hop=1
299.114us  Probe  s=1  link=2  hop=2  lambda=10.00 Mbps  eta=8
305.234us  Update  s=0  link=7  hop=0
305.234us  Probe  s=1  link=11  hop=3  lambda=10.00 Mbps  eta=8
314.767us  Probe  s=0  link=6  hop=1  lambda=60.00 Mbps  eta=6
314.767us  Response  s=1  link=10  hop=2  tau=RESPONSE  lambda=10.00 Mbps  eta=8
324.300us  Probe  s=0  link=0  hop=2  lambda=60.00 Mbps  eta=6
324.300us  Response  s=1  link=3  hop=1  tau=RESPONSE  lambda=10.00 Mbps  eta=8
330.420us  Probe  s=0  link=2  hop=3  lambda=50.00 Mbps  eta=2
330.420us  Response  s=1  link=9  hop=0  tau=RESPONSE  lambda=10.00 Mbps  eta=8
336.540us  Probe  s=0  link=4  hop=4  lambda=50.00 Mbps  eta=2
339.953us  API.Rate  s=1  rate=10.00 Mbps
339.953us  SetBottleneck  s=1  link=8  hop=1  beta=true
342.660us  Probe  s=0  link=13  hop=5  lambda=50.00 Mbps  eta=2
349.486us  SetBottleneck  s=1  link=2  hop=2  beta=true
352.193us  Response  s=0  link=12  hop=4  tau=RESPONSE  lambda=50.00 Mbps  eta=2
355.606us  SetBottleneck  s=1  link=11  hop=3  beta=true
361.726us  Response  s=0  link=5  hop=3  tau=RESPONSE  lambda=50.00 Mbps  eta=2
367.846us  Response  s=0  link=3  hop=2  tau=RESPONSE  lambda=50.00 Mbps  eta=2
373.966us  Response  s=0  link=1  hop=1  tau=UPDATE  lambda=50.00 Mbps  eta=2
380.086us  Response  s=0  link=7  hop=0  tau=UPDATE  lambda=50.00 Mbps  eta=2
389.619us  Probe  s=0  link=6  hop=1  lambda=60.00 Mbps  eta=6
399.152us  Probe  s=0  link=0  hop=2  lambda=60.00 Mbps  eta=6
405.272us  Probe  s=0  link=2  hop=3  lambda=60.00 Mbps  eta=6
411.392us  Probe  s=0  link=4  hop=4  lambda=60.00 Mbps  eta=6
417.512us  Probe  s=0  link=13  hop=5  lambda=60.00 Mbps  eta=6
427.045us  Response  s=0  link=12  hop=4  tau=RESPONSE  lambda=60.00 Mbps  eta=6
436.578us  Response  s=0  link=5  hop=3  tau=BOTTLENECK  lambda=60.00 Mbps  eta=13
442.698us  Response  s=0  link=3  hop=2  tau=BOTTLENECK  lambda=60.00 Mbps  eta=13
448.818us  Response  s=0  link=1  hop=1  tau=BOTTLENECK  lambda=60.00 Mbps  eta=13
454.938us  Response  s=0  link=7  hop=0  tau=BOTTLENECK  lambda=60.00 Mbps  eta=13
464.471us  API.Rate  s=0  rate=60.00 Mbps
464.471us  SetBottleneck  s=0  link=6  hop=1  beta=true
474.004us  SetBottleneck  s=0  link=0  hop=2  beta=true
480.124us  SetBottleneck  s=0  link=2  hop=3  beta=true
486.244us  SetBottleneck  s=0  link=4  hop=4  beta=true
492.364us  SetBottleneck  s=0  link=13  hop=5  beta=true
501.897us  Leave  s=0  link=6  hop=1
511.430us  Leave  s=0  link=0  hop=2
517.550us  Leave  s=0  link=2  hop=3
523.670us  Leave  s=0  link=4  hop=4
529.790us  Leave  s=0  link=13  hop=5
)trace";

constexpr const char kGoldenWeightedTrace[] =
    R"trace(0ns  Join  s=0  link=6  hop=1  lambda=30.00 Mbps  eta=6
0ns  Join  s=1  link=8  hop=1  lambda=90.00 Mbps  eta=8
9.533us  Join  s=0  link=0  hop=2  lambda=30.00 Mbps  eta=6
9.533us  Join  s=1  link=2  hop=2  lambda=90.00 Mbps  eta=8
15.653us  Join  s=0  link=2  hop=3  lambda=30.00 Mbps  eta=6
15.653us  Join  s=1  link=11  hop=3  lambda=90.00 Mbps  eta=8
21.773us  Join  s=0  link=4  hop=4  lambda=30.00 Mbps  eta=6
25.186us  Response  s=1  link=10  hop=2  tau=RESPONSE  lambda=90.00 Mbps  eta=8
27.893us  Join  s=0  link=13  hop=5  lambda=30.00 Mbps  eta=6
34.719us  Response  s=1  link=3  hop=1  tau=RESPONSE  lambda=90.00 Mbps  eta=8
37.426us  Response  s=0  link=12  hop=4  tau=RESPONSE  lambda=30.00 Mbps  eta=6
40.839us  Response  s=1  link=9  hop=0  tau=UPDATE  lambda=90.00 Mbps  eta=8
46.959us  Response  s=0  link=5  hop=3  tau=BOTTLENECK  lambda=30.00 Mbps  eta=13
50.372us  Probe  s=1  link=8  hop=1  lambda=90.00 Mbps  eta=8
53.079us  Response  s=0  link=3  hop=2  tau=BOTTLENECK  lambda=30.00 Mbps  eta=13
59.199us  Response  s=0  link=1  hop=1  tau=BOTTLENECK  lambda=30.00 Mbps  eta=13
59.905us  Probe  s=1  link=2  hop=2  lambda=40.00 Mbps  eta=2
65.319us  Response  s=0  link=7  hop=0  tau=BOTTLENECK  lambda=30.00 Mbps  eta=13
66.025us  Probe  s=1  link=11  hop=3  lambda=40.00 Mbps  eta=2
74.852us  API.Rate  s=0  rate=60.00 Mbps
74.852us  SetBottleneck  s=0  link=6  hop=1  beta=true
75.558us  Response  s=1  link=10  hop=2  tau=RESPONSE  lambda=40.00 Mbps  eta=2
84.385us  SetBottleneck  s=0  link=0  hop=2  beta=true
85.091us  Response  s=1  link=3  hop=1  tau=RESPONSE  lambda=40.00 Mbps  eta=2
90.505us  SetBottleneck  s=0  link=2  hop=3  beta=true
91.211us  Response  s=1  link=9  hop=0  tau=UPDATE  lambda=40.00 Mbps  eta=2
96.625us  SetBottleneck  s=0  link=4  hop=4  beta=true
100.744us  Probe  s=1  link=8  hop=1  lambda=90.00 Mbps  eta=8
102.745us  SetBottleneck  s=0  link=13  hop=5  beta=true
110.277us  Probe  s=1  link=2  hop=2  lambda=80.00 Mbps  eta=2
116.397us  Probe  s=1  link=11  hop=3  lambda=80.00 Mbps  eta=2
125.930us  Response  s=1  link=10  hop=2  tau=RESPONSE  lambda=80.00 Mbps  eta=2
135.463us  Response  s=1  link=3  hop=1  tau=RESPONSE  lambda=80.00 Mbps  eta=2
141.583us  Response  s=1  link=9  hop=0  tau=BOTTLENECK  lambda=80.00 Mbps  eta=2
151.116us  API.Rate  s=1  rate=40.00 Mbps
151.116us  SetBottleneck  s=1  link=8  hop=1  beta=false
160.649us  SetBottleneck  s=1  link=2  hop=2  beta=true
166.769us  SetBottleneck  s=1  link=11  hop=3  beta=true
176.302us  Join  s=2  link=10  hop=1  lambda=20.00 Mbps  eta=10
185.835us  Join  s=2  link=3  hop=2  lambda=20.00 Mbps  eta=10
191.955us  Join  s=2  link=1  hop=3  lambda=20.00 Mbps  eta=10
198.075us  Join  s=2  link=7  hop=4  lambda=20.00 Mbps  eta=10
207.608us  Response  s=2  link=6  hop=3  tau=RESPONSE  lambda=20.00 Mbps  eta=10
217.141us  Response  s=2  link=0  hop=2  tau=BOTTLENECK  lambda=20.00 Mbps  eta=7
223.261us  Response  s=2  link=2  hop=1  tau=BOTTLENECK  lambda=20.00 Mbps  eta=7
229.381us  Response  s=2  link=11  hop=0  tau=BOTTLENECK  lambda=20.00 Mbps  eta=7
238.914us  API.Rate  s=2  rate=60.00 Mbps
238.914us  SetBottleneck  s=2  link=10  hop=1  beta=true
248.447us  SetBottleneck  s=2  link=3  hop=2  beta=true
254.567us  SetBottleneck  s=2  link=1  hop=3  beta=true
260.687us  SetBottleneck  s=2  link=7  hop=4  beta=true
270.220us  Probe  s=1  link=8  hop=1  lambda=6.67 Mbps  eta=8
279.753us  Update  s=0  link=1  hop=1
279.753us  Probe  s=1  link=2  hop=2  lambda=6.67 Mbps  eta=8
285.873us  Update  s=0  link=7  hop=0
285.873us  Probe  s=1  link=11  hop=3  lambda=6.67 Mbps  eta=8
295.406us  Probe  s=0  link=6  hop=1  lambda=30.00 Mbps  eta=6
295.406us  Response  s=1  link=10  hop=2  tau=RESPONSE  lambda=6.67 Mbps  eta=8
304.939us  Probe  s=0  link=0  hop=2  lambda=30.00 Mbps  eta=6
304.939us  Response  s=1  link=3  hop=1  tau=RESPONSE  lambda=6.67 Mbps  eta=8
311.059us  Probe  s=0  link=2  hop=3  lambda=28.57 Mbps  eta=2
311.059us  Response  s=1  link=9  hop=0  tau=RESPONSE  lambda=6.67 Mbps  eta=8
317.179us  Probe  s=0  link=4  hop=4  lambda=28.57 Mbps  eta=2
320.592us  API.Rate  s=1  rate=10.00 Mbps
320.592us  SetBottleneck  s=1  link=8  hop=1  beta=true
323.299us  Probe  s=0  link=13  hop=5  lambda=28.57 Mbps  eta=2
330.125us  SetBottleneck  s=1  link=2  hop=2  beta=true
332.832us  Response  s=0  link=12  hop=4  tau=RESPONSE  lambda=28.57 Mbps  eta=2
336.245us  SetBottleneck  s=1  link=11  hop=3  beta=true
342.365us  Response  s=0  link=5  hop=3  tau=RESPONSE  lambda=28.57 Mbps  eta=2
348.485us  Response  s=0  link=3  hop=2  tau=RESPONSE  lambda=28.57 Mbps  eta=2
354.605us  Response  s=0  link=1  hop=1  tau=UPDATE  lambda=28.57 Mbps  eta=2
360.725us  Response  s=0  link=7  hop=0  tau=UPDATE  lambda=28.57 Mbps  eta=2
370.258us  Probe  s=0  link=6  hop=1  lambda=30.00 Mbps  eta=6
379.791us  Probe  s=0  link=0  hop=2  lambda=30.00 Mbps  eta=6
385.911us  Probe  s=0  link=2  hop=3  lambda=30.00 Mbps  eta=6
392.031us  Probe  s=0  link=4  hop=4  lambda=30.00 Mbps  eta=6
398.151us  Probe  s=0  link=13  hop=5  lambda=30.00 Mbps  eta=6
407.684us  Response  s=0  link=12  hop=4  tau=RESPONSE  lambda=30.00 Mbps  eta=6
417.217us  Response  s=0  link=5  hop=3  tau=BOTTLENECK  lambda=30.00 Mbps  eta=13
423.337us  Response  s=0  link=3  hop=2  tau=BOTTLENECK  lambda=30.00 Mbps  eta=13
429.457us  Response  s=0  link=1  hop=1  tau=BOTTLENECK  lambda=30.00 Mbps  eta=13
435.577us  Response  s=0  link=7  hop=0  tau=BOTTLENECK  lambda=30.00 Mbps  eta=13
445.110us  API.Rate  s=0  rate=60.00 Mbps
445.110us  SetBottleneck  s=0  link=6  hop=1  beta=true
454.643us  SetBottleneck  s=0  link=0  hop=2  beta=true
460.763us  SetBottleneck  s=0  link=2  hop=3  beta=true
466.883us  SetBottleneck  s=0  link=4  hop=4  beta=true
473.003us  SetBottleneck  s=0  link=13  hop=5  beta=true
482.536us  Leave  s=0  link=6  hop=1
492.069us  Leave  s=0  link=0  hop=2
498.189us  Leave  s=0  link=2  hop=3
504.309us  Leave  s=0  link=4  hop=4
510.429us  Leave  s=0  link=13  hop=5
)trace";

constexpr const char kGoldenSharedTrace[] =
    R"trace(0ns  Join  s=0  link=6  hop=1  lambda=60.00 Mbps  eta=6
0ns  Join  s=1  link=6  hop=1  lambda=30.00 Mbps  eta=6
9.533us  Join  s=0  link=0  hop=2  lambda=60.00 Mbps  eta=6
15.653us  Join  s=0  link=2  hop=3  lambda=60.00 Mbps  eta=6
18.066us  Join  s=1  link=0  hop=2  lambda=30.00 Mbps  eta=6
21.773us  Join  s=0  link=4  hop=4  lambda=60.00 Mbps  eta=6
24.186us  Join  s=1  link=2  hop=3  lambda=30.00 Mbps  eta=6
27.893us  Join  s=0  link=13  hop=5  lambda=60.00 Mbps  eta=6
30.306us  Join  s=1  link=11  hop=4  lambda=30.00 Mbps  eta=6
37.426us  Response  s=0  link=12  hop=4  tau=RESPONSE  lambda=60.00 Mbps  eta=6
39.839us  Response  s=1  link=10  hop=3  tau=RESPONSE  lambda=30.00 Mbps  eta=6
46.959us  Response  s=0  link=5  hop=3  tau=BOTTLENECK  lambda=60.00 Mbps  eta=13
49.372us  Response  s=1  link=3  hop=2  tau=RESPONSE  lambda=30.00 Mbps  eta=6
53.079us  Response  s=0  link=3  hop=2  tau=BOTTLENECK  lambda=60.00 Mbps  eta=13
55.492us  Response  s=1  link=1  hop=1  tau=RESPONSE  lambda=30.00 Mbps  eta=6
60.612us  Response  s=0  link=1  hop=1  tau=UPDATE  lambda=60.00 Mbps  eta=13
61.612us  Response  s=1  link=7  hop=0  tau=RESPONSE  lambda=30.00 Mbps  eta=6
66.732us  Response  s=0  link=7  hop=0  tau=UPDATE  lambda=60.00 Mbps  eta=13
79.678us  Probe  s=0  link=6  hop=1  lambda=30.00 Mbps  eta=6
89.211us  Probe  s=0  link=0  hop=2  lambda=30.00 Mbps  eta=6
95.331us  Probe  s=0  link=2  hop=3  lambda=30.00 Mbps  eta=6
101.451us  Probe  s=0  link=4  hop=4  lambda=30.00 Mbps  eta=6
107.571us  Probe  s=0  link=13  hop=5  lambda=30.00 Mbps  eta=6
117.104us  Response  s=0  link=12  hop=4  tau=RESPONSE  lambda=30.00 Mbps  eta=6
126.637us  Response  s=0  link=5  hop=3  tau=RESPONSE  lambda=30.00 Mbps  eta=6
132.757us  Response  s=0  link=3  hop=2  tau=RESPONSE  lambda=30.00 Mbps  eta=6
138.877us  Response  s=0  link=1  hop=1  tau=RESPONSE  lambda=30.00 Mbps  eta=6
144.997us  Response  s=0  link=7  hop=0  tau=RESPONSE  lambda=30.00 Mbps  eta=6
154.530us  API.Rate  s=1  rate=30.00 Mbps
154.530us  API.Rate  s=0  rate=30.00 Mbps
154.530us  SetBottleneck  s=1  link=6  hop=1  beta=true
154.530us  SetBottleneck  s=0  link=6  hop=1  beta=true
164.063us  SetBottleneck  s=1  link=0  hop=2  beta=true
170.183us  SetBottleneck  s=1  link=2  hop=3  beta=true
172.596us  SetBottleneck  s=0  link=0  hop=2  beta=true
176.303us  SetBottleneck  s=1  link=11  hop=4  beta=true
178.716us  SetBottleneck  s=0  link=2  hop=3  beta=true
184.836us  SetBottleneck  s=0  link=4  hop=4  beta=true
190.956us  SetBottleneck  s=0  link=13  hop=5  beta=true
200.489us  Join  s=2  link=6  hop=1  lambda=15.00 Mbps  eta=6
200.489us  Probe  s=0  link=6  hop=1  lambda=15.00 Mbps  eta=6
200.489us  Probe  s=1  link=6  hop=1  lambda=15.00 Mbps  eta=6
210.022us  Update  s=0  link=7  hop=0
210.022us  Update  s=1  link=7  hop=0
210.022us  Join  s=2  link=0  hop=2  lambda=15.00 Mbps  eta=6
216.142us  Join  s=2  link=9  hop=3  lambda=15.00 Mbps  eta=6
218.555us  Probe  s=0  link=0  hop=2  lambda=15.00 Mbps  eta=6
224.675us  Probe  s=0  link=2  hop=3  lambda=15.00 Mbps  eta=6
225.675us  Response  s=2  link=8  hop=2  tau=RESPONSE  lambda=15.00 Mbps  eta=6
227.088us  Probe  s=1  link=0  hop=2  lambda=15.00 Mbps  eta=6
230.795us  Probe  s=0  link=4  hop=4  lambda=15.00 Mbps  eta=6
233.208us  Probe  s=1  link=2  hop=3  lambda=15.00 Mbps  eta=6
235.208us  Response  s=2  link=1  hop=1  tau=RESPONSE  lambda=15.00 Mbps  eta=6
236.915us  Probe  s=0  link=13  hop=5  lambda=15.00 Mbps  eta=6
239.328us  Probe  s=1  link=11  hop=4  lambda=15.00 Mbps  eta=6
241.328us  Response  s=2  link=7  hop=0  tau=RESPONSE  lambda=15.00 Mbps  eta=6
246.448us  Response  s=0  link=12  hop=4  tau=RESPONSE  lambda=15.00 Mbps  eta=6
248.861us  Response  s=1  link=10  hop=3  tau=RESPONSE  lambda=15.00 Mbps  eta=6
255.981us  Response  s=0  link=5  hop=3  tau=RESPONSE  lambda=15.00 Mbps  eta=6
258.394us  Response  s=1  link=3  hop=2  tau=RESPONSE  lambda=15.00 Mbps  eta=6
262.101us  Response  s=0  link=3  hop=2  tau=RESPONSE  lambda=15.00 Mbps  eta=6
264.514us  Response  s=1  link=1  hop=1  tau=RESPONSE  lambda=15.00 Mbps  eta=6
269.634us  Response  s=0  link=1  hop=1  tau=RESPONSE  lambda=15.00 Mbps  eta=6
270.634us  Response  s=1  link=7  hop=0  tau=RESPONSE  lambda=15.00 Mbps  eta=6
275.754us  Response  s=0  link=7  hop=0  tau=RESPONSE  lambda=15.00 Mbps  eta=6
288.700us  API.Rate  s=1  rate=15.00 Mbps
288.700us  API.Rate  s=2  rate=30.00 Mbps
288.700us  API.Rate  s=0  rate=15.00 Mbps
288.700us  SetBottleneck  s=1  link=6  hop=1  beta=true
288.700us  SetBottleneck  s=2  link=6  hop=1  beta=true
288.700us  SetBottleneck  s=0  link=6  hop=1  beta=true
298.233us  SetBottleneck  s=1  link=0  hop=2  beta=true
304.353us  SetBottleneck  s=1  link=2  hop=3  beta=true
306.766us  SetBottleneck  s=2  link=0  hop=2  beta=true
310.473us  SetBottleneck  s=1  link=11  hop=4  beta=true
312.886us  SetBottleneck  s=2  link=9  hop=3  beta=true
315.299us  SetBottleneck  s=0  link=0  hop=2  beta=true
321.419us  SetBottleneck  s=0  link=2  hop=3  beta=true
327.539us  SetBottleneck  s=0  link=4  hop=4  beta=true
333.659us  SetBottleneck  s=0  link=13  hop=5  beta=true
343.192us  Leave  s=1  link=6  hop=1
343.192us  Probe  s=0  link=6  hop=1  lambda=20.00 Mbps  eta=6
343.192us  Probe  s=2  link=6  hop=1  lambda=20.00 Mbps  eta=6
352.725us  Leave  s=1  link=0  hop=2
358.845us  Leave  s=1  link=2  hop=3
361.258us  Probe  s=0  link=0  hop=2  lambda=20.00 Mbps  eta=6
364.965us  Leave  s=1  link=11  hop=4
367.378us  Probe  s=0  link=2  hop=3  lambda=20.00 Mbps  eta=6
369.791us  Probe  s=2  link=0  hop=2  lambda=20.00 Mbps  eta=6
373.498us  Probe  s=0  link=4  hop=4  lambda=20.00 Mbps  eta=6
375.911us  Probe  s=2  link=9  hop=3  lambda=20.00 Mbps  eta=6
379.618us  Probe  s=0  link=13  hop=5  lambda=20.00 Mbps  eta=6
385.444us  Response  s=2  link=8  hop=2  tau=RESPONSE  lambda=20.00 Mbps  eta=6
389.151us  Response  s=0  link=12  hop=4  tau=RESPONSE  lambda=20.00 Mbps  eta=6
394.977us  Response  s=2  link=1  hop=1  tau=RESPONSE  lambda=20.00 Mbps  eta=6
398.684us  Response  s=0  link=5  hop=3  tau=RESPONSE  lambda=20.00 Mbps  eta=6
401.097us  Response  s=2  link=7  hop=0  tau=RESPONSE  lambda=20.00 Mbps  eta=6
404.804us  Response  s=0  link=3  hop=2  tau=RESPONSE  lambda=20.00 Mbps  eta=6
410.924us  Response  s=0  link=1  hop=1  tau=RESPONSE  lambda=20.00 Mbps  eta=6
417.044us  Response  s=0  link=7  hop=0  tau=RESPONSE  lambda=20.00 Mbps  eta=6
426.577us  API.Rate  s=2  rate=40.00 Mbps
426.577us  API.Rate  s=0  rate=20.00 Mbps
426.577us  SetBottleneck  s=2  link=6  hop=1  beta=true
426.577us  SetBottleneck  s=0  link=6  hop=1  beta=true
436.110us  SetBottleneck  s=2  link=0  hop=2  beta=true
442.230us  SetBottleneck  s=2  link=9  hop=3  beta=true
444.643us  SetBottleneck  s=0  link=0  hop=2  beta=true
450.763us  SetBottleneck  s=0  link=2  hop=3  beta=true
456.883us  SetBottleneck  s=0  link=4  hop=4  beta=true
463.003us  SetBottleneck  s=0  link=13  hop=5  beta=true
)trace";

constexpr const char kGoldenLossyArqTrace[] =
    R"trace(0ns  Join  s=0  link=6  hop=1  lambda=60.00 Mbps  eta=6
0ns  Join  s=1  link=8  hop=1  lambda=45.00 Mbps  eta=8
9.533us  Join  s=0  link=0  hop=2  lambda=60.00 Mbps  eta=6
9.533us  Join  s=1  link=2  hop=2  lambda=45.00 Mbps  eta=8
15.653us  Join  s=0  link=2  hop=3  lambda=50.00 Mbps  eta=2
15.653us  Join  s=1  link=11  hop=3  lambda=45.00 Mbps  eta=8
25.186us  Response  s=1  link=10  hop=2  tau=RESPONSE  lambda=45.00 Mbps  eta=8
34.719us  Response  s=1  link=3  hop=1  tau=RESPONSE  lambda=45.00 Mbps  eta=8
40.839us  Response  s=1  link=9  hop=0  tau=RESPONSE  lambda=45.00 Mbps  eta=8
70.733us  Join  s=0  link=2  hop=3  lambda=50.00 Mbps  eta=2
76.264us  Join  s=0  link=6  hop=1  lambda=60.00 Mbps  eta=6
76.853us  Join  s=0  link=4  hop=4  lambda=50.00 Mbps  eta=2
82.973us  Join  s=0  link=13  hop=5  lambda=50.00 Mbps  eta=2
92.506us  Response  s=0  link=12  hop=4  tau=RESPONSE  lambda=50.00 Mbps  eta=2
102.039us  Response  s=0  link=5  hop=3  tau=RESPONSE  lambda=50.00 Mbps  eta=2
117.103us  Response  s=1  link=9  hop=0  tau=RESPONSE  lambda=45.00 Mbps  eta=8
126.636us  API.Rate  s=1  rate=45.00 Mbps
126.636us  SetBottleneck  s=1  link=8  hop=1  beta=true
150.999us  Response  s=0  link=5  hop=3  tau=RESPONSE  lambda=50.00 Mbps  eta=2
157.119us  Response  s=0  link=3  hop=2  tau=RESPONSE  lambda=50.00 Mbps  eta=2
202.900us  SetBottleneck  s=1  link=8  hop=1  beta=true
206.079us  Response  s=0  link=3  hop=2  tau=RESPONSE  lambda=50.00 Mbps  eta=2
212.199us  Response  s=0  link=1  hop=1  tau=RESPONSE  lambda=50.00 Mbps  eta=2
212.433us  Update  s=0  link=1  hop=1
212.433us  SetBottleneck  s=1  link=2  hop=2  beta=true
218.319us  Response  s=0  link=7  hop=0  tau=RESPONSE  lambda=50.00 Mbps  eta=2
223.439us  Update  s=0  link=7  hop=0
223.439us  SetBottleneck  s=1  link=11  hop=3  beta=true
236.385us  Probe  s=0  link=6  hop=1  lambda=60.00 Mbps  eta=6
245.918us  Probe  s=0  link=0  hop=2  lambda=60.00 Mbps  eta=6
261.393us  SetBottleneck  s=1  link=2  hop=2  beta=true
294.878us  Probe  s=0  link=0  hop=2  lambda=60.00 Mbps  eta=6
299.703us  SetBottleneck  s=1  link=11  hop=3  beta=true
343.838us  Probe  s=0  link=0  hop=2  lambda=60.00 Mbps  eta=6
349.958us  Probe  s=0  link=2  hop=3  lambda=55.00 Mbps  eta=2
356.078us  Probe  s=0  link=4  hop=4  lambda=55.00 Mbps  eta=2
362.198us  Probe  s=0  link=13  hop=5  lambda=55.00 Mbps  eta=2
371.731us  Response  s=0  link=12  hop=4  tau=RESPONSE  lambda=55.00 Mbps  eta=2
375.967us  SetBottleneck  s=1  link=11  hop=3  beta=true
398.918us  Probe  s=0  link=2  hop=3  lambda=55.00 Mbps  eta=2
447.995us  Response  s=0  link=12  hop=4  tau=RESPONSE  lambda=55.00 Mbps  eta=2
457.528us  Response  s=0  link=5  hop=3  tau=RESPONSE  lambda=55.00 Mbps  eta=2
463.648us  Response  s=0  link=3  hop=2  tau=RESPONSE  lambda=55.00 Mbps  eta=2
469.768us  Response  s=0  link=1  hop=1  tau=BOTTLENECK  lambda=55.00 Mbps  eta=2
518.728us  Response  s=0  link=1  hop=1  tau=BOTTLENECK  lambda=55.00 Mbps  eta=2
524.259us  Response  s=0  link=12  hop=4  tau=RESPONSE  lambda=55.00 Mbps  eta=2
524.848us  Response  s=0  link=7  hop=0  tau=BOTTLENECK  lambda=55.00 Mbps  eta=2
600.523us  Response  s=0  link=12  hop=4  tau=RESPONSE  lambda=55.00 Mbps  eta=2
601.112us  Response  s=0  link=7  hop=0  tau=BOTTLENECK  lambda=55.00 Mbps  eta=2
610.645us  API.Rate  s=0  rate=55.00 Mbps
610.645us  SetBottleneck  s=0  link=6  hop=1  beta=false
677.376us  Response  s=0  link=7  hop=0  tau=BOTTLENECK  lambda=55.00 Mbps  eta=2
686.909us  SetBottleneck  s=0  link=6  hop=1  beta=false
696.442us  SetBottleneck  s=0  link=0  hop=2  beta=false
702.562us  SetBottleneck  s=0  link=2  hop=3  beta=true
708.682us  SetBottleneck  s=0  link=4  hop=4  beta=true
714.802us  SetBottleneck  s=0  link=13  hop=5  beta=true
753.640us  Response  s=0  link=7  hop=0  tau=BOTTLENECK  lambda=55.00 Mbps  eta=2
829.904us  Join  s=2  link=10  hop=1  lambda=60.00 Mbps  eta=10
839.437us  Join  s=2  link=3  hop=2  lambda=60.00 Mbps  eta=10
845.557us  Join  s=2  link=1  hop=3  lambda=60.00 Mbps  eta=10
851.677us  Join  s=2  link=7  hop=4  lambda=60.00 Mbps  eta=10
861.210us  Response  s=2  link=6  hop=3  tau=RESPONSE  lambda=60.00 Mbps  eta=10
870.743us  Response  s=2  link=0  hop=2  tau=BOTTLENECK  lambda=60.00 Mbps  eta=7
876.863us  Response  s=2  link=2  hop=1  tau=BOTTLENECK  lambda=60.00 Mbps  eta=7
882.983us  Response  s=2  link=11  hop=0  tau=BOTTLENECK  lambda=60.00 Mbps  eta=7
925.823us  Response  s=2  link=2  hop=1  tau=BOTTLENECK  lambda=60.00 Mbps  eta=7
959.247us  Response  s=2  link=11  hop=0  tau=BOTTLENECK  lambda=60.00 Mbps  eta=7
1.036ms  Response  s=2  link=11  hop=0  tau=BOTTLENECK  lambda=60.00 Mbps  eta=7
1.112ms  Response  s=2  link=11  hop=0  tau=BOTTLENECK  lambda=60.00 Mbps  eta=7
1.188ms  Response  s=2  link=11  hop=0  tau=BOTTLENECK  lambda=60.00 Mbps  eta=7
1.198ms  API.Rate  s=2  rate=60.00 Mbps
1.198ms  SetBottleneck  s=2  link=10  hop=1  beta=true
1.207ms  SetBottleneck  s=2  link=3  hop=2  beta=true
1.213ms  SetBottleneck  s=2  link=1  hop=3  beta=true
1.219ms  SetBottleneck  s=2  link=7  hop=4  beta=true
1.274ms  SetBottleneck  s=2  link=10  hop=1  beta=true
1.296ms  SetBottleneck  s=2  link=7  hop=4  beta=true
1.372ms  SetBottleneck  s=2  link=7  hop=4  beta=true
1.448ms  Probe  s=1  link=8  hop=1  lambda=10.00 Mbps  eta=8
1.458ms  Update  s=0  link=1  hop=1
1.458ms  Probe  s=1  link=2  hop=2  lambda=10.00 Mbps  eta=8
1.464ms  Update  s=0  link=7  hop=0
1.464ms  Probe  s=1  link=11  hop=3  lambda=10.00 Mbps  eta=8
1.473ms  Probe  s=0  link=6  hop=1  lambda=60.00 Mbps  eta=6
1.473ms  Response  s=1  link=10  hop=2  tau=RESPONSE  lambda=10.00 Mbps  eta=8
1.483ms  Probe  s=0  link=0  hop=2  lambda=60.00 Mbps  eta=6
1.483ms  Response  s=1  link=3  hop=1  tau=RESPONSE  lambda=10.00 Mbps  eta=8
1.489ms  Response  s=1  link=9  hop=0  tau=RESPONSE  lambda=10.00 Mbps  eta=8
1.499ms  API.Rate  s=1  rate=10.00 Mbps
1.499ms  SetBottleneck  s=1  link=8  hop=1  beta=true
1.507ms  Update  s=0  link=1  hop=1
1.532ms  Probe  s=0  link=0  hop=2  lambda=60.00 Mbps  eta=6
1.540ms  Probe  s=1  link=11  hop=3  lambda=10.00 Mbps  eta=8
1.550ms  Probe  s=0  link=6  hop=1  lambda=60.00 Mbps  eta=6
1.575ms  SetBottleneck  s=1  link=8  hop=1  beta=true
1.581ms  Probe  s=0  link=0  hop=2  lambda=60.00 Mbps  eta=6
1.584ms  SetBottleneck  s=1  link=2  hop=2  beta=true
1.590ms  SetBottleneck  s=1  link=11  hop=3  beta=true
1.616ms  Probe  s=1  link=11  hop=3  lambda=10.00 Mbps  eta=8
1.616ms  SetBottleneck  s=1  link=11  hop=3  beta=true
1.630ms  Probe  s=0  link=0  hop=2  lambda=60.00 Mbps  eta=6
1.633ms  SetBottleneck  s=1  link=2  hop=2  beta=true
1.651ms  SetBottleneck  s=1  link=8  hop=1  beta=true
1.679ms  Probe  s=0  link=0  hop=2  lambda=60.00 Mbps  eta=6
1.685ms  Probe  s=0  link=2  hop=3  lambda=60.00 Mbps  eta=6
1.691ms  Probe  s=0  link=4  hop=4  lambda=60.00 Mbps  eta=6
1.697ms  Probe  s=0  link=13  hop=5  lambda=60.00 Mbps  eta=6
1.707ms  Response  s=0  link=12  hop=4  tau=RESPONSE  lambda=60.00 Mbps  eta=6
1.716ms  Response  s=0  link=5  hop=3  tau=BOTTLENECK  lambda=60.00 Mbps  eta=13
1.765ms  Response  s=0  link=5  hop=3  tau=BOTTLENECK  lambda=60.00 Mbps  eta=13
1.771ms  Response  s=0  link=3  hop=2  tau=BOTTLENECK  lambda=60.00 Mbps  eta=13
1.777ms  Response  s=0  link=1  hop=1  tau=BOTTLENECK  lambda=60.00 Mbps  eta=13
1.783ms  Response  s=0  link=12  hop=4  tau=RESPONSE  lambda=60.00 Mbps  eta=6
1.783ms  Response  s=0  link=7  hop=0  tau=BOTTLENECK  lambda=60.00 Mbps  eta=13
1.793ms  API.Rate  s=0  rate=60.00 Mbps
1.793ms  SetBottleneck  s=0  link=6  hop=1  beta=true
1.859ms  Response  s=0  link=12  hop=4  tau=RESPONSE  lambda=60.00 Mbps  eta=6
1.860ms  Response  s=0  link=7  hop=0  tau=BOTTLENECK  lambda=60.00 Mbps  eta=13
1.869ms  SetBottleneck  s=0  link=6  hop=1  beta=true
1.946ms  SetBottleneck  s=0  link=6  hop=1  beta=true
2.022ms  SetBottleneck  s=0  link=6  hop=1  beta=true
2.031ms  SetBottleneck  s=0  link=0  hop=2  beta=true
2.037ms  SetBottleneck  s=0  link=2  hop=3  beta=true
2.044ms  SetBottleneck  s=0  link=4  hop=4  beta=true
2.050ms  SetBottleneck  s=0  link=13  hop=5  beta=true
2.086ms  SetBottleneck  s=0  link=2  hop=3  beta=true
2.135ms  SetBottleneck  s=0  link=2  hop=3  beta=true
2.184ms  Leave  s=0  link=6  hop=1
2.194ms  Leave  s=0  link=0  hop=2
2.200ms  Leave  s=0  link=2  hop=3
2.206ms  Leave  s=0  link=4  hop=4
2.255ms  Leave  s=0  link=4  hop=4
2.261ms  Leave  s=0  link=13  hop=5
)trace";

// All four scenarios run on the same 3-link parking lot.
net::Network make_net() {
  topo::CanonicalOptions opt;
  opt.router_capacity = 100.0;
  opt.access_capacity = 60.0;
  return topo::make_parking_lot(3, opt);
}

template <class Driver>
std::string run_trace(BneckConfig cfg, Driver&& drive) {
  const net::Network n = make_net();
  const net::PathFinder pf(n);
  sim::Simulator sim;
  std::ostringstream os;
  TextTracer tracer(os);
  BneckProtocol bneck(sim, n, cfg, &tracer);
  drive(bneck, sim, pf, n.hosts());
  return os.str();
}

void drive_unweighted(BneckProtocol& bneck, sim::Simulator& sim,
                      const net::PathFinder& pf,
                      const std::vector<NodeId>& h) {
  bneck.join(SessionId{0}, *pf.shortest_path(h[0], h[3]));
  bneck.join(SessionId{1}, *pf.shortest_path(h[1], h[2]), 45.0);
  sim.run_until_idle();
  bneck.join(SessionId{2}, *pf.shortest_path(h[2], h[0]), 80.0);
  sim.run_until_idle();
  bneck.change(SessionId{1}, 10.0);
  sim.run_until_idle();
  bneck.leave(SessionId{0});
  sim.run_until_idle();
}

void drive_weighted(BneckProtocol& bneck, sim::Simulator& sim,
                    const net::PathFinder& pf,
                    const std::vector<NodeId>& h) {
  bneck.join(SessionId{0}, *pf.shortest_path(h[0], h[3]), kRateInfinity, 2.0);
  bneck.join(SessionId{1}, *pf.shortest_path(h[1], h[2]), 45.0, 0.5);
  sim.run_until_idle();
  bneck.join(SessionId{2}, *pf.shortest_path(h[2], h[0]), 80.0, 3.0);
  sim.run_until_idle();
  bneck.change(SessionId{1}, 10.0, 1.5);
  sim.run_until_idle();
  bneck.leave(SessionId{0});
  sim.run_until_idle();
}

void drive_shared(BneckProtocol& bneck, sim::Simulator& sim,
                  const net::PathFinder& pf,
                  const std::vector<NodeId>& h) {
  bneck.join(SessionId{0}, *pf.shortest_path(h[0], h[3]));
  bneck.join(SessionId{1}, *pf.shortest_path(h[0], h[2]), 45.0);
  sim.run_until_idle();
  bneck.join(SessionId{2}, *pf.shortest_path(h[0], h[1]), 80.0, 2.0);
  sim.run_until_idle();
  bneck.leave(SessionId{1});
  sim.run_until_idle();
}

TEST(TransportEquiv, UnweightedGoldenTraceImplicitTransport) {
  EXPECT_EQ(run_trace({}, drive_unweighted), kGoldenUnweightedTrace);
}

TEST(TransportEquiv, WeightedGoldenTraceImplicitTransport) {
  EXPECT_EQ(run_trace({}, drive_weighted), kGoldenWeightedTrace);
}

TEST(TransportEquiv, SharedAccessGoldenTraceImplicitTransport) {
  BneckConfig cfg;
  cfg.shared_access_links = true;
  EXPECT_EQ(run_trace(cfg, drive_shared), kGoldenSharedTrace);
}

// Pins the go-back-N timing itself: every data transmission (first
// tries and retransmissions) and its timestamp under 20% symmetric loss,
// captured before the simulator's ARQ moved onto the clock-agnostic
// ReliableChannel core.
TEST(TransportEquiv, LossyArqGoldenTrace) {
  BneckConfig cfg;
  cfg.wire.reliable_links = true;
  cfg.wire.faults.drop = 0.2;
  cfg.wire.faults.seed = 0x10552024;  // the trace was pinned on this seed
  EXPECT_EQ(run_trace(cfg, drive_unweighted), kGoldenLossyArqTrace);
}

// SimTransport times every send from a per-link table built at
// construction; WireConfig::control_tx_time stays the one definition
// (src/check/ derives its bounds from it), so the table must agree with
// it on every link, with transmission modelled or not.
TEST(TransportEquiv, CachedLinkTimingMatchesControlTxTime) {
  struct NullSink final : transport::TransportSink {
    void on_wire(const Packet&, LinkId) override {}
    void on_packet(const Packet&) override {}
  };
  auto params = topo::small_params();
  Rng rng(2024);
  const auto n = topo::make_transit_stub(params, rng);
  for (const bool model_transmission : {true, false}) {
    transport::WireConfig cfg;
    cfg.model_transmission = model_transmission;
    sim::Simulator sim;
    NullSink sink;
    const transport::SimTransport wire(sim, n, sink, cfg);
    for (std::int32_t e = 0; e < n.link_count(); ++e) {
      const net::Link& l = n.link(LinkId{e});
      EXPECT_EQ(wire.timing(LinkId{e}).tx, cfg.control_tx_time(l))
          << "link " << e << " model_transmission " << model_transmission;
      EXPECT_EQ(wire.timing(LinkId{e}).prop, l.prop_delay) << "link " << e;
    }
  }
}

}  // namespace
}  // namespace bneck::core
