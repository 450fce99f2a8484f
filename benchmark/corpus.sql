-- Statement corpus for the network/sql/dbms isolated drives: every statement
-- template the five generators in internal/workload issue, with literal
-- values that are valid against YCSB(1000), SmallBank(1000), TATP(2000) and
-- TPC-C(1 warehouse, 20 customers/district, 200 items) loaded side by side.
-- One statement per line; the execute drive runs a whole pass inside one
-- transaction and rolls it back, so inserts and deletes repeat cleanly.
-- ycsb
SELECT * FROM usertable WHERE ycsb_key = 417
-- smallbank
SELECT bal FROM savings WHERE custid = 311
SELECT bal FROM checking WHERE custid = 311
UPDATE checking SET bal = bal + 42.0 WHERE custid = 311
UPDATE savings SET bal = bal + 42.0 WHERE custid = 311
UPDATE checking SET bal = bal - 17.0 WHERE custid = 311
UPDATE savings SET bal = 0 WHERE custid = 622
UPDATE checking SET bal = 0 WHERE custid = 622
UPDATE savings SET bal = bal - 9.0 WHERE custid = 623
-- tatp
SELECT * FROM subscriber WHERE s_id = 1201
SELECT sf_type FROM special_facility WHERE s_id = 1201 AND is_active = 1
SELECT numberx FROM call_forwarding WHERE s_id = 1201 AND sf_type = 1 AND start_time <= 8
SELECT data1, data2 FROM access_info WHERE s_id = 1201 AND ai_type = 1
UPDATE subscriber SET bit_1 = 1 WHERE s_id = 1201
UPDATE special_facility SET data_a = 77 WHERE s_id = 1201 AND sf_type = 1
UPDATE subscriber SET vlr_location = 4099 WHERE sub_nbr = 'nbr1201xxxxxxxx'
SELECT s_id FROM subscriber WHERE sub_nbr = 'nbr1201xxxxxxxx'
INSERT INTO call_forwarding VALUES (1201, 1, 40, 48, 'nbr77xxxxxxxxxx')
DELETE FROM call_forwarding WHERE s_id = 1201 AND sf_type = 1 AND start_time = 40
-- tpcc new-order
SELECT w_tax FROM warehouse WHERE w_id = 1
SELECT d_tax, d_next_o_id FROM district WHERE d_w_id = 1 AND d_id = 3
UPDATE district SET d_next_o_id = d_next_o_id + 1 WHERE d_w_id = 1 AND d_id = 3
SELECT c_balance FROM customer WHERE c_w_id = 1 AND c_d_id = 3 AND c_id = 7
INSERT INTO orders VALUES (1, 3, 900001, 7, 0, 5)
INSERT INTO new_order VALUES (1, 3, 900001)
SELECT i_price FROM item WHERE i_id = 55
SELECT s_quantity FROM stock WHERE s_w_id = 1 AND s_i_id = 55
UPDATE stock SET s_quantity = s_quantity - 3, s_ytd = s_ytd + 3.0, s_order_cnt = s_order_cnt + 1 WHERE s_w_id = 1 AND s_i_id = 55
INSERT INTO order_line VALUES (1, 3, 900001, 1, 55, 3, 29.7)
-- tpcc payment
UPDATE warehouse SET w_ytd = w_ytd + 120.5 WHERE w_id = 1
UPDATE district SET d_ytd = d_ytd + 120.5 WHERE d_w_id = 1 AND d_id = 3
SELECT c_id FROM customer WHERE c_w_id = 1 AND c_d_id = 3 AND c_last = 'name7'
UPDATE customer SET c_balance = c_balance - 120.5, c_ytd_payment = c_ytd_payment + 120.5, c_payment_cnt = c_payment_cnt + 1 WHERE c_w_id = 1 AND c_d_id = 3 AND c_id = 7
INSERT INTO history VALUES (1, 3, 7, 120.5, 'payment')
-- tpcc order-status
SELECT c_balance, c_last FROM customer WHERE c_w_id = 1 AND c_d_id = 3 AND c_id = 7
SELECT o_id, o_carrier_id FROM orders WHERE o_w_id = 1 AND o_d_id = 3 AND o_c_id = 7 ORDER BY o_id DESC LIMIT 1
SELECT ol_i_id, ol_quantity, ol_amount FROM order_line WHERE ol_w_id = 1 AND ol_d_id = 3 AND ol_o_id = 5
-- tpcc delivery
SELECT no_o_id FROM new_order WHERE no_w_id = 1 AND no_d_id = 3 ORDER BY no_o_id LIMIT 1
DELETE FROM new_order WHERE no_w_id = 1 AND no_d_id = 3 AND no_o_id = 900001
SELECT o_c_id FROM orders WHERE o_w_id = 1 AND o_d_id = 3 AND o_id = 5
UPDATE orders SET o_carrier_id = 4 WHERE o_w_id = 1 AND o_d_id = 3 AND o_id = 5
SELECT SUM(ol_amount) FROM order_line WHERE ol_w_id = 1 AND ol_d_id = 3 AND ol_o_id = 5
UPDATE customer SET c_balance = c_balance + 88.0 WHERE c_w_id = 1 AND c_d_id = 3 AND c_id = 7
-- tpcc stock-level
SELECT d_next_o_id FROM district WHERE d_w_id = 1 AND d_id = 3
SELECT COUNT(*) FROM order_line ol JOIN stock s ON ol.ol_i_id = s.s_i_id WHERE ol.ol_w_id = 1 AND ol.ol_d_id = 3 AND ol.ol_o_id >= 1 AND s.s_w_id = 1 AND s.s_quantity < 15
-- chbenchmark analytical
SELECT ol_number, SUM(ol_quantity), SUM(ol_amount), AVG(ol_amount), COUNT(*) FROM order_line WHERE ol_quantity >= 1 GROUP BY ol_number ORDER BY ol_number
SELECT SUM(ol_amount) FROM order_line WHERE ol_quantity BETWEEN 2 AND 6 AND ol_amount > 1
SELECT c.c_last, COUNT(*) FROM orders o JOIN customer c ON o.o_c_id = c.c_id WHERE o.o_w_id = 1 AND c.c_w_id = 1 GROUP BY c.c_last ORDER BY c.c_last
SELECT COUNT(*), AVG(s_quantity) FROM stock WHERE s_quantity < 35
