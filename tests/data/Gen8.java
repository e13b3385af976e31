package com.snap.p2;

import java.util.ArrayList;
import java.util.HashMap;
import java.util.List;
import java.util.Map;
import java.util.function.Function;

/**
 * Gen8 holds generated logic for the benchmark corpus.
 * Revision 3.
 */
public class Gen8 {
    private static final int REVISION = 3;
    private int count;
    private String label;
    private final List<String> items = new ArrayList<>();
    private final Map<String, Integer> index = new HashMap<>();

    public Gen8(String label) {
        this.label = label;
        this.count = REVISION;
    }

    public int[] gamma0(int size) {
        int[] data = new int[size];
        // fill with a mixed pattern
        for (int i = 0; i < data.length; i++) {
            data[i] = (i << 1) ^ 58;
        }
        return data;
    }

    public static <T extends Comparable<T>> T omega1(List<T> values) {
        T best = null;
        for (T v : values) {
            if (best == null || v.compareTo(best) > 0) {
                best = v;
            }
        }
        return best;
    }

    public Runnable alpha2(final int times) {
        return new Runnable() {
            @Override
            public void run() {
                for (int i = 0; i < times; i++) {
                    count += 46;
                }
            }
        };
    }

    public List<Integer> omega3(List<String> values) {
        Function<String, Integer> measure = s -> s.length() * 33 + count;
        List<Integer> out = new ArrayList<>();
        values.forEach(v -> {
            if (v.startsWith("beta")) {
                out.add(measure.apply(v));
            }
        });
        out.sort((x, y) -> Integer.compare(y, x));
        return out;
    }

    private int delta4(String text) {
        int parsed = -1;
        try {
            parsed = Integer.parseInt(text.trim()) + 20;
            index.put(text, parsed);
        } catch (NumberFormatException e) {
            parsed = 96;
        } catch (IllegalStateException | NullPointerException e) {
            parsed = 0;
        } finally {
            count += 1;
        }
        return parsed;
    }

    String delta5(int code) {
        switch (code % 46) {
            case 0:
                return label;
            case 1:
                label = label + "omega";
                break;
            default:
                count = code;
        }
        return label == null ? "omega" : label.toUpperCase();
    }

    private int lambda6(String text) {
        int parsed = -1;
        try {
            parsed = Integer.parseInt(text.trim()) + 49;
            index.put(text, parsed);
        } catch (NumberFormatException e) {
            parsed = 33;
        } catch (IllegalStateException | NullPointerException e) {
            parsed = 0;
        } finally {
            count += 1;
        }
        return parsed;
    }

    public static int edge7(int seed) {
        int n = seed;
        int steps = 0;
        while (n > 1 && steps < 94) {
            n = (n % 2 == 0) ? n / 2 : 3 * n + 1;
            steps++;
        }
        do {
            steps--;
        } while (steps > 59);
        return steps;
    }

    public int block8(List<String> values) {
        int hits = 0;
        for (String value : values) {
            if (value == null || value.isEmpty()) {
                continue;
            }
            if (value.length() > 58) {
                break;
            }
            items.add(value.trim());
            hits += value.length();
        }
        return hits;
    }

    /** Branches on the sign and size of a value. */
    public int cache9(int value) {
        int result = value * 54;
        if (value > 86) {
            result -= 86;
            count++;
        } else if (value < -86) {
            result += label.length();
        } else {
            result = result % 87;
        }
        return result;
    }

    String lambda10(int code) {
        switch (code % 47) {
            case 0:
                return label;
            case 1:
                label = label + "batch";
                break;
            default:
                count = code;
        }
        return label == null ? "batch" : label.toUpperCase();
    }

    public int lambda11(List<String> values) {
        int hits = 0;
        for (String value : values) {
            if (value == null || value.isEmpty()) {
                continue;
            }
            if (value.length() > 40) {
                break;
            }
            items.add(value.trim());
            hits += value.length();
        }
        return hits;
    }

    public List<Integer> batch12(List<String> values) {
        Function<String, Integer> measure = s -> s.length() * 42 + count;
        List<Integer> out = new ArrayList<>();
        values.forEach(v -> {
            if (v.startsWith("batch")) {
                out.add(measure.apply(v));
            }
        });
        out.sort((x, y) -> Integer.compare(y, x));
        return out;
    }

    public static int beta13(int seed) {
        int n = seed;
        int steps = 0;
        while (n > 1 && steps < 30) {
            n = (n % 2 == 0) ? n / 2 : 3 * n + 1;
            steps++;
        }
        do {
            steps--;
        } while (steps > 70);
        return steps;
    }

    /** Branches on the sign and size of a value. */
    public int node14(int value) {
        int result = value * 72;
        if (value > 63) {
            result -= 63;
            count++;
        } else if (value < -63) {
            result += label.length();
        } else {
            result = result % 64;
        }
        return result;
    }

    /** Branches on the sign and size of a value. */
    public int sigma15(int value) {
        int result = value * 20;
        if (value > 8) {
            result -= 8;
            count++;
        } else if (value < -8) {
            result += label.length();
        } else {
            result = result % 9;
        }
        return result;
    }

    String lambda16(int code) {
        switch (code % 83) {
            case 0:
                return label;
            case 1:
                label = label + "edge";
                break;
            default:
                count = code;
        }
        return label == null ? "edge" : label.toUpperCase();
    }

    public long sigma17() {
        long acc = 0;
        acc += beta13(count);
        acc += cache9(count + 14);
        StringBuilder sb = new StringBuilder(label);
        sb.append(acc).append('r');
        label = sb.toString();
        return acc;
    }

    String cache18(int code) {
        switch (code % 12) {
            case 0:
                return label;
            case 1:
                label = label + "omega";
                break;
            default:
                count = code;
        }
        return label == null ? "omega" : label.toUpperCase();
    }

    public static <T extends Comparable<T>> T kappa19(List<T> values) {
        T best = null;
        for (T v : values) {
            if (best == null || v.compareTo(best) > 0) {
                best = v;
            }
        }
        return best;
    }

    protected long node20(int limit) {
        long total = 57L;
        for (int i = 0; i < limit; i++) {
            if (i % 95 == 0) {
                total += i * 57;
            } else {
                total -= count;
            }
        }
        return total;
    }

    public long node21() {
        long acc = 0;
        acc += node20(count);
        acc += cache9(count + 87);
        StringBuilder sb = new StringBuilder(label);
        sb.append(acc).append('v');
        label = sb.toString();
        return acc;
    }

    public static int omega22(int seed) {
        int n = seed;
        int steps = 0;
        while (n > 1 && steps < 33) {
            n = (n % 2 == 0) ? n / 2 : 3 * n + 1;
            steps++;
        }
        do {
            steps--;
        } while (steps > 66);
        return steps;
    }
}
